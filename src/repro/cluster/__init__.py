"""Sharded multi-device cluster layer above the serving engine.

Each device is a private :class:`~repro.serving.engine.ServingEngine`
plus its own artifact/schedule caches; a router places requests by
consistent hashing on the pipeline's content fingerprint so repeated
work lands where it is already cached, with replication for hot keys,
health tracking, and fault-driven retry/hedging/failover.  See
``docs/cluster.md``.
"""

from .cluster import (
    Cluster,
    ClusterResult,
    DEVICES_ENV,
    HEDGE_ENV,
    HOT_KEY_THRESHOLD,
    REPLICAS_ENV,
    RETRIES_ENV,
    cluster_device_count,
    cluster_hedge_ms,
    cluster_max_attempts,
    cluster_replica_count,
)
from .autoscaler import (
    AUTOSCALE_INTERVAL_ENV,
    AUTOSCALE_MAX_ENV,
    AUTOSCALE_MIN_ENV,
    AutoscaleSignals,
    Autoscaler,
    autoscale_interval_s,
    autoscale_max_devices,
    autoscale_min_devices,
)
from .client import format_status, serve_request_file_clustered
from .device import (
    DEFAULT_SCHEDULE_CAPACITY,
    DEFAULT_STORE_CAPACITY,
    FAILURE_THRESHOLD,
    DeviceHandle,
    DeviceHealth,
)
from .faults import (
    FAULT_DETAIL_PREFIX,
    FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
)
from .ring import DEFAULT_VNODES, HashRing

__all__ = [
    "AUTOSCALE_INTERVAL_ENV",
    "AUTOSCALE_MAX_ENV",
    "AUTOSCALE_MIN_ENV",
    "AutoscaleSignals",
    "Autoscaler",
    "autoscale_interval_s",
    "autoscale_max_devices",
    "autoscale_min_devices",
    "Cluster",
    "ClusterResult",
    "DEFAULT_SCHEDULE_CAPACITY",
    "DEFAULT_STORE_CAPACITY",
    "DEFAULT_VNODES",
    "DEVICES_ENV",
    "FAILURE_THRESHOLD",
    "FAULT_DETAIL_PREFIX",
    "FAULTS_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "HEDGE_ENV",
    "HOT_KEY_THRESHOLD",
    "HashRing",
    "REPLICAS_ENV",
    "RETRIES_ENV",
    "DeviceHandle",
    "DeviceHealth",
    "cluster_device_count",
    "cluster_hedge_ms",
    "cluster_max_attempts",
    "cluster_replica_count",
    "format_status",
    "parse_fault_plan",
    "serve_request_file_clustered",
]
