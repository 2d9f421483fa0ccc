"""Configuration validation, derived quantities, and the knob inventory."""

import ast
import re
from pathlib import Path

import pytest

from repro.config import (
    ACCUMULATOR_LATENCY,
    COLUMN_WINDOW,
    ELEMENTS_PER_WORD,
    AcceleratorConfig,
    ChasonConfig,
    HBMConfig,
    SerpensConfig,
    paper_configs,
)
from repro.errors import ConfigError
from repro.knobs import RUNTIME_KNOBS

REPO = Path(__file__).resolve().parent.parent


class TestHBMConfig:
    def test_defaults_match_u55c(self):
        hbm = HBMConfig()
        assert hbm.total_channels == 32
        assert hbm.channel_bytes == 64
        assert hbm.peak_bandwidth_gbps == pytest.approx(459.84)

    def test_used_bandwidth_for_chason(self):
        hbm = HBMConfig()
        # §5.1: Chasoň uses 19 channels for ≈273 GB/s.
        assert hbm.used_bandwidth_gbps(19) == pytest.approx(273.03)

    def test_rejects_zero_channels(self):
        with pytest.raises(ConfigError):
            HBMConfig(total_channels=0)

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ConfigError):
            HBMConfig(bandwidth_per_channel_gbps=-1.0)

    def test_rejects_unaligned_width(self):
        with pytest.raises(ConfigError):
            HBMConfig(channel_bits=100)

    def test_used_bandwidth_rejects_overallocation(self):
        with pytest.raises(ConfigError):
            HBMConfig(total_channels=4).used_bandwidth_gbps(5)


class TestAcceleratorConfig:
    def test_total_pes(self):
        config = AcceleratorConfig()
        assert config.total_pes == 16 * ELEMENTS_PER_WORD == 128

    def test_used_channels_is_nineteen(self):
        # 16 sparse + x + y + instruction stream (§5.1).
        assert AcceleratorConfig().used_channels == 19

    def test_cycle_time(self):
        config = AcceleratorConfig(frequency_mhz=250.0)
        assert config.cycle_time_ns == pytest.approx(4.0)

    def test_with_frequency_returns_copy(self):
        config = AcceleratorConfig()
        faster = config.with_frequency(400.0)
        assert faster.frequency_mhz == 400.0
        assert config.frequency_mhz == 223.0

    def test_rejects_too_many_pes_per_word(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(pes_per_channel=9)

    def test_rejects_channel_overallocation(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(
                sparse_channels=31, hbm=HBMConfig(total_channels=32)
            )

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(accumulator_latency=0)


class TestPublishedConfigs:
    def test_frequencies(self):
        chason, serpens = paper_configs()
        assert chason.frequency_mhz == 301.0
        assert serpens.frequency_mhz == 223.0

    def test_window_sizes(self):
        chason, _ = paper_configs()
        assert chason.column_window == COLUMN_WINDOW == 8192
        assert chason.row_window == 2**15

    def test_accumulator_latency_is_ten(self):
        assert ACCUMULATOR_LATENCY == 10
        chason, serpens = paper_configs()
        assert chason.accumulator_latency == 10
        assert serpens.accumulator_latency == 10

    def test_chason_migration_defaults(self):
        chason, _ = paper_configs()
        assert chason.migration_span == 1
        assert chason.scug_size == 4

    def test_chason_scug_bounds(self):
        with pytest.raises(ConfigError):
            ChasonConfig(scug_size=0)
        with pytest.raises(ConfigError):
            ChasonConfig(scug_size=9)

    def test_chason_span_bounds(self):
        with pytest.raises(ConfigError):
            ChasonConfig(migration_span=16)
        ChasonConfig(migration_span=0)  # disabled migration is legal

    def test_serpens_is_accelerator_config(self):
        assert isinstance(SerpensConfig(), AcceleratorConfig)


def test_knob_inventory_is_one_list():
    """``RUNTIME_KNOBS`` is the one inventory of ``REPRO_*`` knobs: the
    EXPERIMENTS.md table lists exactly its names, and every knob name
    spelled as a string literal under ``src/`` is registered."""
    names = {entry.name for entry in RUNTIME_KNOBS}
    text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    table = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", text, re.M))
    assert table == names
    literals = set()
    for path in (REPO / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        literals.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)
        )
    assert "REPRO_TELEMETRY" in literals  # the scan finds knobs at all
    assert literals <= names


def test_only_the_knob_table_reads_the_environment():
    """``repro.knobs`` is the one home of the ``REPRO_*`` knobs: no other
    module under ``src/`` reads ``os.environ`` or calls ``os.getenv``."""
    readers = set()
    for path in (REPO / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr in ("environ", "getenv")):
                readers.add(path.relative_to(REPO / "src").as_posix())
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                    and {a.name for a in node.names} & {"environ", "getenv"}):
                readers.add(path.relative_to(REPO / "src").as_posix())
    assert readers == {"repro/knobs.py"}
