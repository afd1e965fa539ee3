"""Backend registry semantics and cross-backend parity.

The backend contract (ROADMAP "Backend contract"): every registered backend
must produce bit-identical arrays to the reference ``numpy`` backend and
emit the identical kernel-record sequence, in both the int32 and int64
index regimes.  The ``numba-python`` backend runs the numba kernel
definitions through the interpreter, so the fused kernels are validated
even where numba itself is not installed; when numba *is* installed the
JIT-compiled backend is exercised too.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from backend_fixtures import backend_params
import repro
from repro import pandora
from repro.parallel import (
    BackendUnavailable,
    CostModel,
    NumpyBackend,
    available_backends,
    backend_available,
    get_backend,
    hotpath,
    registered_backends,
    scoped_workspace,
    tracking,
    use_backend,
    workspace,
)
from repro.parallel import primitives
from repro.parallel.backend_numba import NumbaBackend, numba_available
from repro.structures.tree import random_spanning_tree

NON_NUMPY = [p for p in backend_params() if p.values[0] != "numpy"]


def _trace(model: CostModel) -> list[tuple]:
    return [(r.name, r.category, r.work, r.phase) for r in model.records]


def _run(u, v, w):
    model = CostModel()
    with tracking(model):
        dend, _ = pandora(u, v, w)
    return dend.parent, _trace(model)


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = registered_backends()
        assert "numpy" in names
        assert "numba" in names
        assert "numba-python" in names
        assert "numba-parallel" in names
        assert "numba-parallel-python" in names

    def test_numpy_always_available_and_default(self):
        assert backend_available("numpy")
        assert backend_available("numba-python")
        assert get_backend().name == "numpy"

    def test_numba_availability_matches_import_probe(self):
        assert available_backends()["numba"] == numba_available()

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with use_backend("cuda-someday"):
                pass
        assert not backend_available("cuda-someday")

    def test_unavailable_backend_raises(self):
        if numba_available():
            pytest.skip("numba installed: its backend is available here")
        with pytest.raises(BackendUnavailable):
            with use_backend("numba"):
                pass

    def test_use_backend_nests_and_restores(self):
        base = get_backend()
        with use_backend("numba-python") as b:
            assert get_backend() is b
            assert b.name == "numba-python"
            with use_backend("numpy") as inner:
                assert get_backend() is inner
            assert get_backend() is b
        assert get_backend() is base

    def test_use_backend_accepts_instance(self):
        mine = NumpyBackend()
        with use_backend(mine):
            assert get_backend() is mine

    def test_instances_are_cached_singletons(self):
        with use_backend("numba-python") as a:
            pass
        with use_backend("numba-python") as b:
            pass
        assert a is b

    def test_env_var_selects_default(self):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.parallel import get_backend; print(get_backend().name)"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src),
                 "REPRO_BACKEND": "numba-python"},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "numba-python"

    def test_backend_owns_its_workspace(self):
        with use_backend("numba-python") as b:
            assert workspace() is b.workspace
        assert workspace() is get_backend().workspace
        # distinct instances own distinct pools
        assert NumpyBackend().workspace is not get_backend().workspace

    def test_scoped_workspace_swaps_active_backend_pool(self):
        with use_backend("numba-python") as b:
            before = b.workspace
            with scoped_workspace() as ws:
                assert b.workspace is ws
                assert workspace() is ws
            assert b.workspace is before


# ---------------------------------------------------------------------------
# Vocabulary: every operation has a library caller
# ---------------------------------------------------------------------------

#: Public ``NumpyBackend`` names exempt from the caller check, with reasons.
_VOCABULARY_ALLOWED = {
    "take": "workspace scratch allocator, not a kernel",
    "asarray": "array constructor for device backends, not a kernel",
    "empty": "array constructor for device backends, not a kernel",
    "zeros": "array constructor for device backends, not a kernel",
    "full": "array constructor for device backends, not a kernel",
    "arange": "array constructor for device backends, not a kernel",
    "workspace": "per-thread scratch pool, read as a property",
    "encode_floats_ascending": "composed inside spatial_partition; numba "
                               "overrides it",
}


def _library_uses() -> tuple[set[str], set[str]]:
    """``(x.name(...) call names, imported-or-called bare names)`` over
    ``src/repro``, skipping the vocabulary's own modules and the package
    ``__init__`` re-exports.  Calls on ``np``/``numpy`` do not count."""
    root = Path(repro.__file__).parent
    method_calls: set[str] = set()
    names: set[str] = set()
    for path in root.rglob("*.py"):
        rel = path.relative_to(root).as_posix()
        if (path.name == "__init__.py" or rel == "parallel/primitives.py"
                or rel.startswith("parallel/backend")):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Call):
                fn = node.func
                if isinstance(fn, ast.Name):
                    names.add(fn.id)
                elif isinstance(fn, ast.Attribute) and not (
                    isinstance(fn.value, ast.Name)
                    and fn.value.id in ("np", "numpy")
                ):
                    method_calls.add(fn.attr)
    return method_calls, names


class TestVocabulary:
    def test_every_operation_has_a_library_caller(self):
        """The kernel vocabulary is exactly what the algorithms call: a
        backend operation must be called as ``x.name(...)`` or reached
        through a used ``primitives`` wrapper, and every wrapper must be
        imported or called.  References for anything else belong in the
        tests."""
        public = {
            n for n, v in vars(NumpyBackend).items()
            if not n.startswith("_")
            and (inspect.isfunction(v) or isinstance(v, property))
        }
        assert set(_VOCABULARY_ALLOWED) <= public, "stale allow-list entry"
        method_calls, names = _library_uses()
        used_wrappers = set(primitives.__all__) & names
        dead_wrappers = sorted(set(primitives.__all__) - used_wrappers)
        dead = sorted(
            public - method_calls - used_wrappers - set(_VOCABULARY_ALLOWED)
        )
        assert not (dead or dead_wrappers), (
            f"backend operations with no library caller: {dead}; "
            f"primitives wrappers with no library caller: {dead_wrappers}"
        )


# ---------------------------------------------------------------------------
# Cross-backend parity: parents and kernel traces
# ---------------------------------------------------------------------------


class TestBackendParity:
    @pytest.mark.parametrize("backend", NON_NUMPY)
    def test_parents_and_traces_identical_int32(self, backend, rng):
        for n in (2, 3, 33, 200, 1500):
            u, v, w = random_spanning_tree(n, rng, skew=float(rng.random()))
            ref_parent, ref_trace = _run(u, v, w)
            with use_backend(backend):
                got_parent, got_trace = _run(u, v, w)
            assert np.array_equal(got_parent, ref_parent)
            assert got_trace == ref_trace

    @pytest.mark.parametrize("backend", NON_NUMPY)
    def test_parents_and_traces_identical_int64(self, backend, rng):
        u, v, w = random_spanning_tree(300, rng, skew=0.6)
        with hotpath(int32_limit=0):
            ref_parent, ref_trace = _run(u, v, w)
            with use_backend(backend):
                got_parent, got_trace = _run(u, v, w)
        assert got_parent.dtype == np.int64
        assert np.array_equal(got_parent, ref_parent)
        assert got_trace == ref_trace

    @pytest.mark.parametrize("backend", NON_NUMPY)
    def test_tied_zero_and_negative_weights(self, backend, rng):
        """Canonical-sort parity where it is hardest: massive ties, +-0.0,
        negatives, and denormal-scale weights."""
        n = 400
        u, v, w = random_spanning_tree(n, rng, skew=0.3)
        w = np.round(w * 3) / 3 - 0.5
        w[::5] = 0.0
        w[1::5] = -0.0
        w[2::7] = -1e-300
        ref_parent, ref_trace = _run(u, v, w)
        with use_backend(backend):
            got_parent, got_trace = _run(u, v, w)
        assert np.array_equal(got_parent, ref_parent)
        assert got_trace == ref_trace

    @pytest.mark.parametrize("backend", NON_NUMPY)
    def test_canonical_sort_matches_lexsort(self, backend, rng):
        from repro.parallel.backend import get_backend as gb

        for size in (0, 1, 2, 17, 1000):
            w = np.round(rng.normal(size=size) * 4) / 4
            ids = np.arange(size, dtype=np.int64)
            ref = NumpyBackend().canonical_sort_order(w, ids)
            with use_backend(backend):
                got = gb().canonical_sort_order(w, ids)
            assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# Fused-kernel unit parity (exercised interpreted everywhere; JIT when
# numba is installed)
# ---------------------------------------------------------------------------


def _numba_instances() -> list:
    from repro.parallel.backend_numba_parallel import NumbaParallelBackend

    out = [NumbaBackend(jit=False), NumbaParallelBackend(jit=False)]
    if numba_available():
        out.append(NumbaBackend())
        out.append(NumbaParallelBackend())
    return out


class TestFusedKernels:
    @pytest.mark.parametrize("b", _numba_instances(), ids=lambda b: b.name)
    def test_pointer_forest_rounds_and_roots(self, b, rng):
        for _ in range(10):
            n = int(rng.integers(1, 120))
            # random rooted pointer forest: parent index <= own index
            ptr = np.minimum(
                rng.integers(0, n, size=n), np.arange(n)
            ).astype(np.int64)
            ref_model, got_model = CostModel(), CostModel()
            with tracking(ref_model):
                ref = NumpyBackend().resolve_pointer_forest(ptr.copy()).copy()
            with tracking(got_model):
                got = b.resolve_pointer_forest(ptr.copy()).copy()
            assert np.array_equal(got, ref)
            assert _trace(got_model) == _trace(ref_model)

    @pytest.mark.parametrize("b", _numba_instances(), ids=lambda b: b.name)
    def test_scatter_max_semantics(self, b, rng):
        """Unordered ``idx`` (outside maxIncident's ascending precondition):
        both realizations still write each edge's two endpoints in edge
        order, so last-write-wins agrees bit for bit."""
        npb = NumpyBackend()
        for _ in range(10):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(1, 150))
            u = rng.integers(0, n, size=m)
            v = rng.integers(0, n, size=m)
            idx = rng.integers(-50, 1000, size=m)
            ref = npb.scatter_max_pairs(np.full(n, -1, dtype=np.int64), u, v, idx)
            got = b.scatter_max_pairs(np.full(n, -1, dtype=np.int64), u, v, idx)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("b", _numba_instances(), ids=lambda b: b.name)
    def test_scatter_max_pairs_matches_numpy(self, b, rng):
        npb = NumpyBackend()
        for dtype in (np.int32, np.int64):
            n = 30
            m = 60
            u = rng.integers(0, n, size=m).astype(dtype)
            v = rng.integers(0, n, size=m).astype(dtype)
            idx = np.arange(m, dtype=dtype)
            ref = npb.scatter_max_pairs(np.full(n, -1, dtype=dtype), u, v, idx)
            got = b.scatter_max_pairs(np.full(n, -1, dtype=dtype), u, v, idx)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("b", _numba_instances(), ids=lambda b: b.name)
    def test_pool_partition_matches_numpy(self, b, rng):
        npb = NumpyBackend()
        for dtype in (np.int32, np.int64):
            for use_keep in (False, True):
                pool = int(rng.integers(0, 40))
                m = int(rng.integers(1, 60))
                nv = 50
                pool_idx = rng.integers(0, 1000, size=pool).astype(dtype)
                pool_vert = rng.integers(0, nv, size=pool).astype(dtype)
                keep = rng.random(pool) < 0.6 if use_keep else None
                vmap = rng.integers(0, 20, size=nv).astype(dtype)
                level_idx = rng.integers(0, 1000, size=m).astype(dtype)
                level_u = rng.integers(0, nv, size=m).astype(dtype)
                non_alpha = rng.random(m) < 0.5
                cap = pool + m

                def run(backend):
                    nxt_i = np.full(cap, -7, dtype=dtype)
                    nxt_v = np.full(cap, -7, dtype=dtype)
                    k = backend.expand_pool_partition(
                        pool_idx, pool_vert, keep, vmap,
                        level_idx, level_u, non_alpha, int(non_alpha.sum()),
                        nxt_i, nxt_v,
                    )
                    return k, nxt_i[:k].copy(), nxt_v[:k].copy()

                ref = run(npb)
                got = run(b)
                assert got[0] == ref[0]
                assert np.array_equal(got[1], ref[1])
                assert np.array_equal(got[2], ref[2])

    def test_jit_backend_requires_numba(self):
        if numba_available():
            pytest.skip("numba installed")
        with pytest.raises(ImportError):
            NumbaBackend()

    @pytest.mark.parametrize("b", _numba_instances(), ids=lambda b: b.name)
    def test_warmup_runs(self, b):
        b.warmup()


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestBackendCLI:
    def test_devices_lists_backends(self, capsys):
        from repro.__main__ import main

        assert main(["devices", "--n", "10000"]) == 0
        out = capsys.readouterr().out
        assert "Registered execution backends" in out
        assert "numpy" in out and "numba" in out

    def test_backend_flag_routes_run(self, tmp_path, capsys, rng):
        from repro.__main__ import main

        pts = rng.normal(size=(200, 2))
        src = tmp_path / "pts.npy"
        np.save(src, pts)
        assert main(["--backend", "numba-python", "dendrogram", str(src),
                     "--verify"]) == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_backend_flag_unknown_name_errors(self):
        from repro.__main__ import main

        with pytest.raises(ValueError, match="unknown backend"):
            main(["--backend", "nope", "datasets"])
