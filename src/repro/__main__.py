"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``cluster``    run HDBSCAN* on a registry dataset or a .npy point file and
               print the flat clustering summary.
``batch``      run HDBSCAN* at several ``mpts`` values through the
               :class:`~repro.engine.Engine`: the kd-tree and kNN table are
               built once for the whole sweep (the paper's Figure-15 query
               pattern) and every per-``mpts`` EMST artifact is cached;
               prints the per-``mpts`` summary plus the reuse stats.
``dendrogram`` build a dendrogram from a dataset (or .npy) and print its
               statistics and phase times; optionally verify against the
               sequential oracle and export Newick.
``serve``      resilient-serving demo: fit a batch of random trees through
               ``Engine.fit_many`` under a
               :class:`~repro.engine.resilience.ServePolicy`, optionally
               injecting deterministic transient faults and malformed jobs,
               and print the per-job result envelopes, ``Engine.health()``
               counters, circuit-breaker state, and process-pool health.
               ``--executor process`` serves the batch from the supervised
               shard pool (``--shards`` workers); ``--kill-rate`` /
               ``--poison-job`` inject deterministic worker crashes there
               (``--fault-rate`` injects *in-process* seam faults and so
               pairs with the thread executor).
``metrics``    run a small serving batch through the engine and print the
               observability surface it produced: the per-request trace
               span trees (queue wait -> dispatch -> per-phase kernel
               timings -> retry/fallback events) and the process-wide
               metrics registry in Prometheus text format (see
               ``docs/observability.md`` for every name).
``datasets``   list the Table-2 dataset registry.
``devices``    show the calibrated device models, price a synthetic trace,
               and list the registered execution backends with their
               availability and GIL capability (whether kernels release
               the GIL -- what the engine keys its serving-pool width on)
               in this environment; ``--explain-sort`` adds the
               sort-engine strategy each pipeline sort site selects at
               ``--n`` (see ``repro.parallel.sortlib``).

Global options
--------------
``--backend NAME``  select the execution backend for the command (registry
                    names: ``numpy`` [default], ``numba`` and
                    ``numba-parallel`` [require the optional numba
                    dependency; the latter's kernels release the GIL],
                    ``numba-python`` / ``numba-parallel-python`` [the
                    kernels interpreted, for parity debugging]).  The
                    ``REPRO_BACKEND`` environment variable sets the same
                    default process-wide; the flag wins.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _load_points(source: str, n: int | None, seed: int) -> np.ndarray:
    if source.endswith(".npy"):
        pts = np.load(source)
        if n is not None:
            pts = pts[:n]
        return np.ascontiguousarray(pts, dtype=np.float64)
    from .data import load_dataset

    return load_dataset(source, n=n, seed=seed)


def cmd_cluster(args: argparse.Namespace) -> int:
    from .hdbscan import hdbscan

    pts = _load_points(args.source, args.n, args.seed)
    res = hdbscan(
        pts,
        mpts=args.mpts,
        min_cluster_size=args.min_cluster_size,
        dendrogram_algorithm=args.algorithm,
    )
    print(f"points: {len(pts):,} (dim {pts.shape[1]})")
    print(f"clusters: {res.n_clusters}")
    sizes = np.sort(res.flat.cluster_sizes())[::-1]
    if sizes.size:
        print(f"sizes: {sizes[:10].tolist()}"
              + (" ..." if sizes.size > 10 else ""))
    print(f"noise: {res.flat.noise_fraction:.1%}")
    print("phases:", {k: f"{v:.3f}s" for k, v in res.phase_seconds.items()})
    if args.out:
        np.save(args.out, res.labels)
        print(f"labels written to {args.out}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    import time

    from .engine import Engine
    from .perf import render_table

    try:
        mpts_values = [int(s) for s in args.mpts.split(",") if s.strip()]
    except ValueError:
        raise SystemExit(f"--mpts must be comma-separated integers, got "
                         f"{args.mpts!r}")
    if not mpts_values:
        raise SystemExit("--mpts must name at least one value")

    pts = _load_points(args.source, args.n, args.seed)
    engine = Engine()
    t0 = time.perf_counter()
    results = engine.hdbscan_batch(
        pts, mpts_values, min_cluster_size=args.min_cluster_size
    )
    elapsed = time.perf_counter() - t0

    rows = []
    for m, res in zip(mpts_values, results):
        rows.append([
            m, res.n_clusters, f"{res.flat.noise_fraction:.1%}",
            f"{res.phase_seconds['mst']:.3f}s",
            f"{res.phase_seconds['dendrogram']:.3f}s",
            f"{res.phase_seconds['extraction']:.3f}s",
        ])
    print(render_table(
        ["mpts", "clusters", "noise", "t_mst", "t_dendrogram", "t_extract"],
        rows,
        title=f"Engine batch: {len(pts):,} points (dim {pts.shape[1]}), "
              f"{len(mpts_values)} mpts values in {elapsed:.3f}s",
    ))
    stats = engine.cache_stats()
    print(f"artifact cache: {stats['entries']} entries, "
          f"{stats['hits']} hits / {stats['misses']} misses "
          f"(kd-tree + kNN built once for the whole sweep)")
    if args.out:
        labels = np.stack([res.labels for res in results])
        np.save(args.out, labels)
        print(f"label matrix ({labels.shape[0]} x {labels.shape[1]}) "
              f"written to {args.out}")
    return 0


def cmd_dendrogram(args: argparse.Namespace) -> int:
    from . import dendrogram_bottomup, pandora
    from .spatial import emst

    pts = _load_points(args.source, args.n, args.seed)
    mst = emst(pts, mpts=args.mpts)
    dend, stats = pandora(mst.u, mst.v, mst.w, len(pts))
    print(f"points: {len(pts):,}  MST edges: {mst.n_edges:,} "
          f"(Boruvka rounds: {mst.n_rounds})")
    print(f"height: {dend.height:,}  skewness: {dend.skewness:.1f}")
    print(f"levels: {stats.n_levels}  sizes: {stats.level_sizes}")
    kinds = dend.kind_counts()
    print(f"edge kinds: {kinds['leaf']} leaf / {kinds['chain']} chain / "
          f"{kinds['alpha']} alpha")
    print("phases:", {k: f"{v:.3f}s" for k, v in stats.phase_seconds.items()})
    if args.verify:
        ref = dendrogram_bottomup(mst.u, mst.v, mst.w, len(pts))
        ok = bool(np.array_equal(dend.parent, ref.parent))
        print(f"oracle verification: {'IDENTICAL' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    if args.newick:
        with open(args.newick, "w", encoding="utf-8") as fh:
            fh.write(dend.to_newick() + "\n")
        print(f"newick written to {args.newick}")
    return 0


def _metrics_pulse(engine) -> str:
    """One compact serving-health line for periodic ``--metrics-every``
    dumps: authoritative health counters plus the pool gauges."""
    health = engine.health()
    total = health["total"]
    return (f"[metrics] ok={total['ok']} failed={total['failed']} "
            f"timeout={total['timeout']} retries={total['retries']} "
            f"fallbacks={total['fallbacks']} shed={health['shed']} "
            f"queue_depth={health['queue_depth']} "
            f"workers_alive={health['workers_alive']} "
            f"respawns={health['respawns']}")


def cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from .engine import Engine
    from .engine.faults import FaultPlan, SiteFaults, WorkerFaults
    from .engine.resilience import ServePolicy
    from .perf import render_table
    from .structures import random_spanning_tree

    rng = np.random.default_rng(args.seed)
    problems = [
        random_spanning_tree(args.n, rng, skew=0.5)
        for _ in range(args.jobs)
    ]
    if args.bad_jobs:
        # Malformed (self-loop) inputs: classified permanent, never retried.
        for i in range(min(args.bad_jobs, len(problems))):
            u, v, w = problems[i]
            problems[i] = (u, u, w)

    policy = ServePolicy(
        max_retries=args.retries,
        job_deadline_s=args.job_deadline,
        batch_deadline_s=args.batch_deadline,
        fallback=not args.no_fallback,
    )
    pool_options: dict = {}
    if args.executor == "process" and (args.kill_rate > 0
                                       or args.poison_job is not None):
        pool_options.update(
            worker_faults=WorkerFaults(
                p_crash=args.kill_rate,
                poison_job_ids=(
                    () if args.poison_job is None else (args.poison_job,)
                ),
                seed=args.fault_seed,
            ),
            # Chaos-demo supervision: fast heartbeats, ample respawns.
            heartbeat_s=0.05,
            respawn_budget=max(16, 4 * args.jobs),
            poison_threshold=3,
            max_dispatch=8,
        )
    engine = Engine(
        executor=args.executor, shards=args.shards,
        pool_options=pool_options,
    )
    stop_dumps = threading.Event()
    dumper = None
    if args.metrics_every is not None:
        if args.metrics_every <= 0:
            raise SystemExit("--metrics-every must be a positive number "
                             "of seconds")

        def _dump_loop() -> None:
            while not stop_dumps.wait(args.metrics_every):
                print(_metrics_pulse(engine), flush=True)

        dumper = threading.Thread(
            target=_dump_loop, name="metrics-dump", daemon=True
        )
        dumper.start()

    try:
        if args.fault_rate > 0:
            spec = SiteFaults(p_transient=args.fault_rate)
            plan = FaultPlan(
                {site: spec for site in ("kernel", "sort", "workspace")},
                seed=args.fault_seed, budget=args.fault_budget,
            )
            with plan.active():
                results = engine.fit_many(problems, max_workers=args.workers,
                                          policy=policy)
            injected = plan.stats()
            print(f"fault plan: p={args.fault_rate} at kernel/sort/workspace, "
                  f"raised {injected['raised_total']} "
                  f"(budget {injected['budget']}) over "
                  f"{sum(injected['draws'].values())} pokes")
        else:
            results = engine.fit_many(problems, max_workers=args.workers,
                                      policy=policy)
    finally:
        stop_dumps.set()
        if dumper is not None:
            dumper.join(timeout=1.0)
    if args.metrics_every is not None:
        print(_metrics_pulse(engine))

    rows = [
        [r.index, r.status, r.backend or "-", r.attempts, r.retries,
         r.fallbacks, f"{r.latency_s * 1e3:.1f}ms",
         type(r.error).__name__ if r.error is not None else ""]
        for r in results
    ]
    print(render_table(
        ["job", "status", "backend", "attempts", "retries", "fallbacks",
         "latency", "error"],
        rows,
        title=f"Resilient serving: {args.jobs} jobs x {args.n:,} edges",
    ))

    health = engine.health()
    health_rows = [
        [name, *[per[k] for k in
                 ("ok", "failed", "timeout", "cancelled", "retries",
                  "fallbacks", "breaker_trips")]]
        for name, per in health["backends"].items()
    ]
    health_rows.append(["TOTAL", *[health["total"][k] for k in
                                   ("ok", "failed", "timeout", "cancelled",
                                    "retries", "fallbacks", "breaker_trips")]])
    print(render_table(
        ["backend", "ok", "failed", "timeout", "cancelled", "retries",
         "fallbacks", "trips"],
        health_rows, title="Engine.health()",
    ))
    for key, st in health["breakers"].items():
        state = "OPEN" if st["open"] else "closed"
        print(f"breaker {key}: {state} "
              f"({st['consecutive_failures']} consecutive failures)")
    print(f"pool: queue_depth={health['queue_depth']} "
          f"workers_alive={health['workers_alive']} "
          f"respawns={health['respawns']} shed={health['shed']} "
          f"degraded={health['degraded']}")
    if health["pool"] is not None:
        pool = health["pool"]
        print(f"shards: {pool['shards']} x {pool['backend'] or 'default'} "
              f"({pool['start_method']}), crashes={pool['crashes']} "
              f"hangs={pool['hangs']} quarantined={pool['quarantined']} "
              f"injected_kills={pool['injected_kills']}")
    engine.shutdown()

    n_ok = sum(r.ok for r in results)
    print(f"{n_ok}/{len(results)} jobs ok")
    if args.verify and n_ok:
        baseline = Engine().fit_many(
            [p for p, r in zip(problems, results) if r.ok]
        )
        identical = all(
            bool(np.array_equal(b.parent, r.value.parent))
            for b, r in zip(baseline, (r for r in results if r.ok))
        )
        print("fault-free parity for ok jobs: "
              + ("IDENTICAL" if identical else "MISMATCH"))
        if not identical:
            return 1
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from .engine import Engine
    from .engine.resilience import ServePolicy
    from .obs import (
        Span,
        enabled,
        recent_spans,
        render_prometheus,
        render_span_tree,
    )
    from .structures import random_spanning_tree

    if not enabled():
        print("observability is disabled (REPRO_OBS=0); nothing to show",
              file=sys.stderr)
        return 1

    rng = np.random.default_rng(args.seed)
    problems = [
        random_spanning_tree(args.n, rng, skew=0.5)
        for _ in range(args.jobs)
    ]
    engine = Engine(executor=args.executor, shards=args.shards)
    results = engine.fit_many(
        problems, max_workers=args.workers, policy=ServePolicy()
    )
    n_ok = sum(r.ok for r in results)
    print(f"served {n_ok}/{len(results)} jobs "
          f"({args.executor} executor, {args.n:,} edges each)\n")

    spans = recent_spans(args.spans)
    if spans:
        print(f"last {len(spans)} request span tree(s):")
        for root in spans:
            print(render_span_tree(root))
        print()
    if args.format in ("prometheus", "both"):
        print(render_prometheus(), end="")
    # Round-trip the snapshot the way Engine.metrics() hands it to
    # callers: plain data, spans reconstructible from their dicts.
    snap = engine.metrics(spans=1)
    if snap["spans"]:
        Span.from_dict(snap["spans"][-1])
    engine.shutdown()
    return 0


def cmd_datasets(_args: argparse.Namespace) -> int:
    from .data import DATASETS
    from .perf import render_table

    rows = [
        [s.name, s.dim, s.paper_npts, s.paper_imbalance, s.default_n,
         s.description]
        for s in DATASETS.values()
    ]
    print(render_table(
        ["name", "dim", "paper_npts", "paper_imb", "default_n", "desc"],
        rows, title="Table-2 dataset registry",
    ))
    return 0


def cmd_devices(args: argparse.Namespace) -> int:
    from .parallel import DEVICES, CostModel, available_backends, get_backend
    from .perf import render_table

    model = CostModel()
    n = args.n
    with model.phase("sort"):
        model.add("edge_sort", "sort", n)
        model.add("chain_sort", "sort", n)
    with model.phase("contraction"):
        model.add("contract", "scatter", 2 * n)
    with model.phase("expansion"):
        model.add("expand", "gather", n)
    rows = []
    for key, spec in DEVICES.items():
        t = model.modeled_time(spec)
        rows.append([key, spec.name, spec.kind, f"{t * 1e3:.2f}ms",
                     f"{1e-6 * n / t:.1f}"])
    print(render_table(
        ["key", "device", "kind", f"t(n={n:,})", "MPts/s"],
        rows, title="Calibrated device models (synthetic PANDORA-shaped trace)",
    ))

    from .parallel import use_backend

    active = get_backend().name
    backend_rows = []
    for name, ok in available_backends().items():
        if ok:
            with use_backend(name) as b:
                gil = "releases" if b.releases_gil else "holds"
        else:
            gil = "-"
        backend_rows.append([
            name, "yes" if ok else "no (missing dependency)", gil,
            "*" if name == active else "",
        ])
    print(render_table(
        ["backend", "available", "gil", "active"],
        backend_rows, title="Registered execution backends "
                            "(gil: whether kernels release the GIL, the "
                            "serving-parallelism capability)",
    ))

    if args.explain_sort:
        from .parallel.sortlib import explain_plans

        sort_rows = [
            [row["site"], row["keys"], row["strategy"]]
            for row in explain_plans(n)
        ]
        print(render_table(
            ["sort site", "keys", f"strategy at n={n:,}"],
            sort_rows,
            title="Sort-engine strategy selection (sortlib; worst-case "
                  "plans, the runtime varying-bit mask can only drop "
                  "passes)",
        ))
    return 0


def main(argv: list[str] | None = None) -> int:
    # Already imported by the package itself (Engine's HDBSCAN* path).
    from .hdbscan.pipeline import DENDROGRAM_ALGORITHMS

    parser = argparse.ArgumentParser(
        prog="repro", description="PANDORA reproduction CLI"
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend (see 'devices' for the registry; "
             "default: $REPRO_BACKEND or 'numpy')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="HDBSCAN* a dataset")
    p.add_argument("source", help="registry dataset name or .npy file")
    p.add_argument("--n", type=int, default=None, help="point count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mpts", type=int, default=2)
    p.add_argument("--min-cluster-size", type=int, default=5)
    p.add_argument("--algorithm", default="pandora",
                   choices=sorted(DENDROGRAM_ALGORITHMS))
    p.add_argument("--out", default=None, help="write labels to .npy")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser(
        "batch", help="HDBSCAN* mpts sweep through the engine (shared "
                      "kd-tree/kNN, cached EMST artifacts)"
    )
    p.add_argument("source", help="registry dataset name or .npy file")
    p.add_argument("--n", type=int, default=None, help="point count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mpts", default="2,4,8,16",
                   help="comma-separated mpts values (default: 2,4,8,16, "
                        "the paper's Figure-15 sweep)")
    p.add_argument("--min-cluster-size", type=int, default=5)
    p.add_argument("--out", default=None,
                   help="write the (n_mpts, n_points) label matrix to .npy")
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("dendrogram", help="build + inspect a dendrogram")
    p.add_argument("source")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mpts", type=int, default=2)
    p.add_argument("--verify", action="store_true",
                   help="check against the sequential oracle")
    p.add_argument("--newick", default=None, help="export Newick to file")
    p.set_defaults(fn=cmd_dendrogram)

    p = sub.add_parser(
        "serve", help="resilient-serving demo: fit a batch of random trees "
                      "under a ServePolicy, optionally with injected "
                      "faults, and print per-job envelopes plus "
                      "Engine.health()"
    )
    p.add_argument("--jobs", type=int, default=8, help="batch size")
    p.add_argument("--n", type=int, default=20_000,
                   help="vertices per random tree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="pool width (default: the backend's heuristic)")
    p.add_argument("--executor", default="thread",
                   choices=["thread", "process"],
                   help="serving executor: in-process thread pool or the "
                        "supervised process-shard pool (crash isolation, "
                        "respawn, poison quarantine, load shedding)")
    p.add_argument("--shards", type=int, default=None,
                   help="worker-process count for --executor process")
    p.add_argument("--kill-rate", type=float, default=0.0, metavar="P",
                   help="with --executor process: inject worker crashes "
                        "with probability P per job reception "
                        "(deterministic per (seed, worker, draw))")
    p.add_argument("--poison-job", type=int, default=None, metavar="I",
                   help="with --executor process: job index I kills every "
                        "worker that receives it until quarantined as "
                        "poisoned")
    p.add_argument("--retries", type=int, default=3,
                   help="transient-failure retry budget per job per backend")
    p.add_argument("--job-deadline", type=float, default=None, metavar="S",
                   help="cooperative per-job deadline in seconds")
    p.add_argument("--batch-deadline", type=float, default=None, metavar="S",
                   help="batch deadline in seconds (pending jobs cancelled)")
    p.add_argument("--no-fallback", action="store_true",
                   help="disable backend degradation")
    p.add_argument("--fault-rate", type=float, default=0.0, metavar="P",
                   help="inject transient faults with probability P per "
                        "poke at kernel/sort/workspace sites")
    p.add_argument("--fault-budget", type=int, default=3,
                   help="cap on total injected faults (keep <= --retries "
                        "so every job completes)")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--bad-jobs", type=int, default=0,
                   help="replace this many jobs with malformed (self-loop) "
                        "inputs to show permanent-failure isolation")
    p.add_argument("--verify", action="store_true",
                   help="re-fit ok jobs fault-free and check bit-identical "
                        "parents")
    p.add_argument("--metrics-every", type=float, default=None, metavar="S",
                   help="print a compact serving-health line every S "
                        "seconds while the batch runs (and once at the "
                        "end); counters are the repro.obs registry "
                        "mirrors of Engine.health()")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "metrics", help="serve a small batch and print the observability "
                        "surface: per-request span trees plus the metrics "
                        "registry in Prometheus text format"
    )
    p.add_argument("--jobs", type=int, default=4, help="batch size")
    p.add_argument("--n", type=int, default=2_000,
                   help="vertices per random tree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="pool width (default: the backend's heuristic)")
    p.add_argument("--executor", default="thread",
                   choices=["thread", "process"],
                   help="serving executor (process stitches the worker-side "
                        "subtree into each request span)")
    p.add_argument("--shards", type=int, default=None,
                   help="worker-process count for --executor process")
    p.add_argument("--spans", type=int, default=4,
                   help="how many recent request span trees to print")
    p.add_argument("--format", default="both",
                   choices=["spans", "prometheus", "both"],
                   help="what to print after the batch")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("datasets", help="list the dataset registry")
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("devices", help="show calibrated device models")
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--explain-sort", action="store_true",
                   help="report which sort strategy each pipeline sort "
                        "site selects at --n (sortlib policy)")
    p.set_defaults(fn=cmd_devices)

    args = parser.parse_args(argv)
    if args.backend is None:
        return args.fn(args)
    # Process-default selection, as documented in the backend module's
    # resolution order (use_backend contexts still override it).  Restored
    # afterwards so in-process callers (tests) see no leaked default.
    from .parallel import set_default_backend

    previous = set_default_backend(args.backend)
    try:
        return args.fn(args)
    finally:
        set_default_backend(previous)


if __name__ == "__main__":
    sys.exit(main())
