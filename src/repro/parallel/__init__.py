"""Data-parallel substrate: backends, primitives, union-find, CC, machine model.

This package is the reproduction's substitute for Kokkos: algorithms above it
are written purely in terms of maps, scans, sorts, gathers and scatters, and
every such call both executes -- on the active pluggable
:class:`~repro.parallel.backend.Backend` (``numpy`` reference kernels by
default, JIT-fused loops on the optional ``numba`` backend, nogil + prange
loops on ``numba-parallel``, the serving backend whose
``Backend.releases_gil`` capability lets the engine's thread pool scale) --
and is accounted in the active :class:`~repro.parallel.machine.CostModel`
so runs can be re-priced on calibrated CPU/GPU device specs.  The kernel
trace is backend-invariant by contract.
"""

from .backend import (
    Backend,
    BackendUnavailable,
    NumpyBackend,
    available_backends,
    backend_available,
    get_backend,
    register_backend,
    registered_backends,
    set_default_backend,
    use_backend,
)
from .connected import (
    compress_labels,
    components_of_forest,
    connected_components,
    resolve_pointer_forest,
)
from .listrank import list_order, list_rank
from .machine import (
    CPU_EPYC_7A53,
    CPU_SEQUENTIAL,
    DEVICES,
    GPU_A100,
    GPU_MI250X,
    CostModel,
    DeviceSpec,
    KernelRecord,
    active_model,
    debug_checks,
    debug_checks_set,
    emit,
    set_debug_checks,
    tracking,
    untracked,
)
from .workspace import (
    Workspace,
    hotpath,
    index_dtype,
    scoped_workspace,
    workspace,
)
from .primitives import (
    argsort,
    argsort_bounded,
    exclusive_scan,
    lexsort,
    scatter,
    scatter_min_at,
    segmented_first,
    sort,
)
from .sortlib import (
    RADIX_KEYS_PER_PASS,
    SortPlan,
    encode_weights_descending,
    explain_plans,
    plan_bounded,
    plan_unsigned,
    stable_argsort_unsigned,
)
from .unionfind import UnionFind

__all__ = [
    # backends
    "Backend",
    "NumpyBackend",
    "BackendUnavailable",
    "register_backend",
    "registered_backends",
    "available_backends",
    "backend_available",
    "get_backend",
    "set_default_backend",
    "use_backend",
    # machine
    "CostModel",
    "DeviceSpec",
    "KernelRecord",
    "tracking",
    "active_model",
    "untracked",
    "emit",
    "CPU_SEQUENTIAL",
    "CPU_EPYC_7A53",
    "GPU_MI250X",
    "GPU_A100",
    "DEVICES",
    # primitives
    "exclusive_scan",
    "sort",
    "argsort",
    "argsort_bounded",
    "lexsort",
    "scatter",
    "scatter_min_at",
    "segmented_first",
    # union-find / cc
    "UnionFind",
    "connected_components",
    "list_rank",
    "list_order",
    "components_of_forest",
    "compress_labels",
    "resolve_pointer_forest",
    # debug validation
    "debug_checks",
    "set_debug_checks",
    "debug_checks_set",
    # sort engine
    "RADIX_KEYS_PER_PASS",
    "SortPlan",
    "encode_weights_descending",
    "stable_argsort_unsigned",
    "plan_unsigned",
    "plan_bounded",
    "explain_plans",
    # workspace / hot path
    "Workspace",
    "workspace",
    "scoped_workspace",
    "hotpath",
    "index_dtype",
]
