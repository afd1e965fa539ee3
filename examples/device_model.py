"""Pricing a PANDORA run on CPU and GPU device models.

This reproduction executes the paper's kernels as vectorized NumPy passes
and records the kernel trace (category + work per launch).  This example
shows that machinery directly: build a dendrogram inside
``with tracking(model):`` (the one way to record a trace), then price the
identical kernel schedule on the calibrated EPYC-7A53 / MI250X / A100
specs and at the paper's full dataset scale -- the mechanism behind every
GPU-shaped figure in the benchmark suite (see docs/architecture.md).

Run:  python examples/device_model.py
"""


from repro import pandora
from repro.data import load_dataset
from repro.parallel import CostModel, DEVICES
from repro.parallel.machine import scale_trace, tracking
from repro.perf import mpoints_per_sec
from repro.spatial import emst


def main() -> None:
    points = load_dataset("Hacc37M", n=30_000, seed=0)
    n = points.shape[0]
    mst = emst(points, mpts=2)

    model = CostModel()
    with tracking(model):
        dend, stats = pandora(mst.u, mst.v, mst.w, n)
    print(f"dendrogram built: skewness {dend.skewness:.0f}, "
          f"{model.kernel_count()} kernels recorded, "
          f"{model.total_work():,} elements of work")

    print("\nkernel trace priced per device (at this run's size):")
    print(f"{'device':28} {'time':>10} {'MPts/s':>8}   phase fractions")
    for key in ("epyc7a53", "mi250x", "a100"):
        spec = DEVICES[key]
        breakdown = model.phase_breakdown(spec)
        total = sum(breakdown.values())
        fracs = {k: f"{v / total:.2f}" for k, v in breakdown.items()}
        print(f"{spec.name:28} {total * 1e3:8.2f}ms "
              f"{mpoints_per_sec(n, total):>8.1f}   {fracs}")

    # The paper's Hacc37M has 37M points; extrapolate the trace.
    full_n = 37_000_000
    big = scale_trace(model, full_n / n)
    print(f"\nextrapolated to the paper's Hacc37M ({full_n / 1e6:.0f}M points):")
    cpu = big.modeled_time(DEVICES["epyc7a53"])
    for key in ("epyc7a53", "mi250x", "a100"):
        spec = DEVICES[key]
        t = big.modeled_time(spec)
        speedup = cpu / t
        print(f"  {spec.name:28} {t:7.3f}s "
              f"{mpoints_per_sec(full_n, t):>8.1f} MPts/s   "
              f"{speedup:4.1f}x vs 64-core CPU")
    print("\n(paper, Fig. 11 Hacc37M: CPU 22, MI250X 172, A100 419 MPts/s)")


if __name__ == "__main__":
    main()
