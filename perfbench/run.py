"""The repository benchmark: drive the linking daemon, check, report.

    python3 perfbench/run.py --workload link-fresh --seed 1 --seconds 10 --trace 0

Run from the repository root.  The daemon runs in its own process,
started from ``src/`` through ``perfbench/daemon.py``; this process
generates the inputs from ``--seed``, builds the store the daemon
serves, drives it with at most ``nproc`` connections, checks the
answers against the in-process library (a failed check exits 3 and
prints no metrics), and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice on the same seed, untraced and then with the per-layer
span wrappers installed in the daemon, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced).  See
``perfbench/README.md`` for workloads, metrics and the layer mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(
        "link-fresh", "link-hot", "ingest-watch", "assign-sharded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke tests")
    parser.add_argument("--corrupt", default=None,
                        choices=("link", "standing", "assign"),
                        help="perturb one in-process reference (tests "
                             "that the gate trips)")
    return parser.parse_args(argv)


def _options(workload: str):
    from repro.core.engine import LinkOptions

    # The CLI's `ftl serve` defaults, plus the ranking flags of the link
    # workloads (workloads.RANKING_ARGS) and the per-request top_k of
    # ingest-watch (workloads.TOP10).
    if workload.startswith("link-"):
        return LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0,
                           phi_r=0.05, top_k=10)
    return LinkOptions(method="naive-bayes", alpha1=0.05, alpha2=0.05,
                       phi_r=0.05,
                       top_k=10 if workload == "ingest-watch" else None)


def run_pass(root: Path, work: Path, args, traced: bool) -> dict:
    """One daemon life: set-up, measured phases, gates."""
    from daemon_proc import Daemon
    from gates import Reference, check_assign, check_link, check_standing
    from inputs import Population, build_store
    from tracer import load_spans
    from workloads import SCALES, WORKLOADS

    scale = SCALES[args.scale]
    serve_args, drive = WORKLOADS[args.workload]
    tag = "traced" if traced else "plain"
    population = Population(args.seed, scale.pool)
    built = work / f"store-{tag}"
    build_store(built, population, n_fit=scale.pool)
    setup_s = []

    def launch(label: str):
        """A daemon on its own copy of the built store, which no earlier
        daemon has opened or written."""
        store_path = work / f"store-{tag}-{label}"
        shutil.copytree(built, store_path)
        trace_dir = work / f"trace-{tag}-{label}"
        if traced:
            trace_dir.mkdir()
        daemon = Daemon(root, ["--store", str(store_path), *serve_args],
                        work / f"daemon-{tag}-{label}.log",
                        trace_dir=trace_dir if traced else None)
        setup_s.append(daemon.setup_s)
        return daemon, store_path, trace_dir

    # setup_s is the median of several launches: about half before the
    # daemon that serves the workload and half after it has stopped, so
    # that set-up is sampled across the whole run.
    extra = scale.setup_launches - 1
    for i in range(extra // 2):
        launch(f"pre{i}")[0].stop()
    daemon, store_path, trace_dir = launch("measured")
    try:
        outcome = drive(population, daemon, args.seconds, scale)
        rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    for i in range(extra - extra // 2):
        launch(f"post{i}")[0].stop()
    outcome.notes["pool"] = len(population.pool_db)

    reference = Reference(store_path, _options(args.workload), args.corrupt)
    checked = {
        "link": check_link(reference, outcome.link_checks),
        "standing": check_standing(reference, *outcome.standing_checks),
        "assign": check_assign(reference, outcome.assign_checks),
    }
    e2e = dict(outcome.e2e, setup_s=statistics.median(setup_s),
               rss_mb=rss_mb)
    spans, missing = load_spans(trace_dir) if traced else ([], [])
    return {"e2e": e2e, "outcome": outcome, "checked": checked,
            "spans": spans, "missing": missing}


def _print_pass(label: str, result: dict) -> None:
    outcome = result["outcome"]
    print(f"-- {label} --")
    for phase in outcome.phases:
        summary = phase.summary()
        print(f"phase {phase.name:<14} sent {summary['sent']:>6} "
              f"ok {summary['succeeded']:>6} failed {summary['failed']:>4} "
              f"wall {summary['wall_s']:6.2f}s  generator lateness "
              f"p50 {summary['lateness_p50_ms']:.2f} ms "
              f"max {summary['lateness_max_ms']:.2f} ms")
    notes = ", ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in outcome.notes.items())
    print(f"notes: {notes}")
    print("checked: " + ", ".join(
        f"{k}={v}" for k, v in result["checked"].items()))


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not "
              "found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    from gates import GateFailure
    from report import E2E, PER_LAYER, layer_metrics, print_tables

    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        passes = [("untraced", run_pass(root, work, args, traced=False))]
        if args.trace:
            passes.append(("traced", run_pass(root, work, args, traced=True)))
    except GateFailure as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, nproc {os.cpu_count()}")
    for label, result in passes:
        _print_pass(label, result)
    plain = passes[0][1]["e2e"]
    if args.trace:
        traced = passes[1][1]
        layers = layer_metrics(traced["outcome"], traced["spans"])
        # End-to-end latencies, measured with tracing off.
        notes = passes[0][1]["outcome"].notes
        layers["client.tail_ms"] = plain["tail_ms"]
        layers["stream.update_visible_p50_ms"] = notes.get(
            "visible_p50_ms", 0.0)
        layers["stream.update_visible_tail_ms"] = notes.get(
            "visible_tail_ms", 0.0)
        for name, _, _ in E2E:
            layers[f"obs.tracing_overhead.{name}"] = (
                traced["e2e"][name] - plain[name])
        print_tables(args.workload, traced["e2e"], layers, plain,
                     traced["missing"])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": plain[name], "unit": unit}
                   for name, unit, _ in E2E}
        print("end-to-end: " + ", ".join(
            f"{name} {plain[name]:.4f} {unit}" for name, unit, _ in E2E))
    phases = [p for _, r in passes for p in r["outcome"].phases]
    print(json.dumps({
        "correct": True,
        "attempted": sum(p.sent for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
