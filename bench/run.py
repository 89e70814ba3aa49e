"""leoho benchmark: training and evaluation throughput, with a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload train-case1 --seed 1 --seconds 25 --trace 0

Drives the public API in-process, single-threaded, with the BLAS/OpenMP
thread pools pinned to one thread.  ``--trace 0`` measures the end-to-end
metrics with nothing traced; ``--trace 1`` alternates untraced and traced
cycles and reports the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import time

T0 = time.perf_counter()  # setup_s starts here, before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MIN_CYCLES = 3
# Rates are reported at the machine speed where workloads.calibrate() takes
# this long: rate * calibration_s / CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.012
RATES = ("train_eps", "eval_dho_eps", "eval_random_eps", "eval_conventional_eps")
END_TO_END_UNITS = {
    "train_eps": "episodes/s",
    "eval_dho_eps": "episodes/s",
    "eval_random_eps": "episodes/s",
    "eval_conventional_eps": "episodes/s",
    "dho_cost": "cost",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def pin_threads() -> dict[str, str]:
    """Force every BLAS/OpenMP pool to one thread; return the values replaced."""
    replaced = {}
    for var in THREAD_PINS:
        if os.environ.get(var, "1") != "1":
            replaced[var] = os.environ[var]
        os.environ[var] = "1"
    return replaced


def load_leoho() -> None:
    """Import the program from this checkout's sources, never from elsewhere."""
    if not (SRC / "leoho" / "__init__.py").is_file():
        raise SystemExit(f"bench: no leoho sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import leoho

    if Path(leoho.__file__).resolve().parent != SRC / "leoho":
        raise SystemExit(f"bench: imported leoho from {leoho.__file__}, not {SRC}")


def setup_probe(spec_path: str, seed: int) -> None:
    """Import, config and env/agent construction, up to the first episode."""
    import numpy as np

    from leoho import agents, env, experiments, net

    spec = experiments.parse_spec_file(spec_path)
    scenario = spec.scenario
    handover = env.HandoverEnv(scenario)
    params = net.init_params(
        env.observation_size(scenario),
        scenario.num_ues,
        scenario.num_planes,
        hidden=spec.training.hidden,
        rng=np.random.default_rng(seed),
    )
    for kind in experiments.AGENT_KINDS:
        agents.make_agent(kind, params=params)
    handover.reset(seed)
    print(repr(time.perf_counter() - T0))


def measure_setup(spec_path: Path, seed: int) -> float:
    """Median of several fresh-interpreter set-ups, scaled like the rates."""
    from workloads import calibrate

    times = []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(spec_path),
             "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        after = calibrate()
        # A slower machine lengthens both; scale to the reference speed.
        times.append(float(proc.stdout.split()[-1]) * 2 * CALIBRATION_REF_S / (before + after))
        before = after
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(replaced: dict[str, str]) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "thread_pins": {var: os.environ[var] for var in THREAD_PINS},
        "pins_overridden": replaced,
    }


class Ledger:
    """Episodes attempted and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, episodes: int, failed: int = 0) -> None:
        self.attempted += episodes
        self.failed += min(failed, episodes)

    def compare(self, results, baseline, fail_all: bool = False) -> None:
        """A phase whose output differs from the checked cycle fails whole."""
        for result, reference in zip(results, baseline):
            bad = fail_all or result.digest != reference.digest
            self.add(result.episodes, result.episodes if bad else 0)


def checked_cycle(workload, specs, work_dir, ledger):
    """An untimed cycle with every episode and summary checked."""
    from checks import EpisodeChecker, summary_ok
    from leoho import experiments
    from workloads import run_cycle

    checker = EpisodeChecker(experiments.parse_spec_file(specs["random"]).scenario)
    with ExitStack() as stack:
        checker.install(stack)
        results = run_cycle(specs, work_dir)
    episodes = sum(r.episodes for r in results)
    failed = checker.failed + max(0, episodes - checker.checked)
    for r in results:
        if not summary_ok(workload.scenario, r.agent, r.row):
            failed += r.episodes
    ledger.add(episodes, failed)
    return results


def run_untraced(workload, specs, seconds, work_dir, ledger, seed):
    from workloads import Meter, run_cycle

    setup_s = measure_setup(specs["random"], seed)
    baseline = checked_cycle(workload, specs, work_dir, ledger)
    meter = Meter()
    raw = {name: [] for name in RATES}
    scaled = {name: [] for name in RATES}
    start = time.perf_counter()
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
        results = run_cycle(specs, work_dir, meter)
        ledger.compare(results, baseline)
        dho, random_, conventional = results
        samples = {
            "train_eps": (dho.train_episodes, dho.train_s, dho.train_calibration_s),
            "eval_dho_eps": (dho.eval_episodes, dho.wall_s - dho.train_s, dho.eval_calibration_s),
            "eval_random_eps": (random_.eval_episodes, random_.wall_s, random_.eval_calibration_s),
            "eval_conventional_eps": (
                conventional.eval_episodes,
                conventional.wall_s,
                conventional.eval_calibration_s,
            ),
        }
        for name, (episodes, elapsed, calibration_s) in samples.items():
            raw[name].append(episodes / elapsed)
            scaled[name].append(episodes / elapsed * calibration_s / CALIBRATION_REF_S)
        cycles += 1
    print(f"cycles: 1 checked + {cycles} timed; "
          f"dho greedy return_mean {baseline[0].row['return_mean']}")
    print(f"calibration_s median {statistics.median(meter.samples)} "
          f"(min {min(meter.samples)}, max {max(meter.samples)}, {len(meter.samples)} samples)")
    for name, rates in raw.items():
        print(f"{name} unscaled median {statistics.median(rates)} episodes/s")
    values = {name: statistics.median(rates) for name, rates in scaled.items()}
    values["dho_cost"] = baseline[0].curve_cost
    values["setup_s"] = setup_s
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def run_traced(workload, specs, seconds, work_dir, ledger):
    from tracing import Tracer, cycle_counts, per_layer_metrics, share_table
    from workloads import run_cycle

    baseline = checked_cycle(workload, specs, work_dir, ledger)
    tracer = Tracer()
    traces, overheads = [], []
    start = time.perf_counter()
    while len(traces) < MIN_CYCLES or time.perf_counter() - start < seconds:
        plain = run_cycle(specs, work_dir)
        with ExitStack() as stack:
            tracer.install(stack)
            traced = run_cycle(specs, work_dir)
        plain_s = sum(r.wall_s for r in plain)
        traced_s = sum(r.wall_s for r in traced)
        trace = tracer.fold(traced_s)
        # Counts must repeat exactly: a cycle whose counts move fails whole.
        moved = bool(traces) and cycle_counts(trace) != cycle_counts(traces[0])
        ledger.compare(plain, baseline)
        ledger.compare(traced, baseline, fail_all=moved)
        traces.append(trace)
        overheads.append(traced_s / plain_s - 1.0)
    print(f"cycles: 1 checked + {len(traces)} untraced/traced pairs")
    print("wait time: none; one thread and no queue, so no layer waits")
    print("self-time share of traced wall time, calls per cycle:")
    for name, share, calls in share_table(traces):
        print(f"  {name:<36} {share:7.2%} {calls:10.0f}")
    print("counts per cycle: " + json.dumps(cycle_counts(traces[0])))
    return per_layer_metrics(traces, statistics.median(overheads))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    replaced = pin_threads()
    load_leoho()
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
        return 0

    from workloads import WORKLOADS, write_specs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    print("environment: " + json.dumps(environment(replaced)))
    print(f"workload: {json.dumps(workload.__dict__)} seed {args.seed}")

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=tmp_root))
    ledger = Ledger()
    try:
        specs = write_specs(workload, args.seed, work_dir)
        if args.trace:
            metrics = run_traced(workload, specs, args.seconds, work_dir, ledger)
        else:
            metrics = run_untraced(workload, specs, args.seconds, work_dir, ledger, args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_fraction {ledger.failed / ledger.attempted} ratio "
          f"({ledger.failed} of {ledger.attempted} episodes)")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
