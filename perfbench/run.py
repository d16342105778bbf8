"""Benchmark of the excomp CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Each invocation of the program is a fresh
`python -m excomp ...` process on inputs made from the seed (see
workloads.py).  Invocations repeat one after the other (a closed loop with
one client) while the next one is expected to end within S seconds.  Every
invocation is checked: exit code, output files, the verdict vector, the
volume quotient at the top radius against a continuum oracle, and
checks/scalars/curves identical to the first invocation of the run.
error_rate = failed / attempted.

--trace 0 reports the end-to-end metrics, medians over the invocations:
  wall_s       wall time from spawn to exit, less the time the hypervisor
               stole from the child (see net_wall)
  cpu_s        user + system CPU time of the child, from its own rusage
  peak_rss_mb  peak resident memory of the child, from its own rusage
  setup_s      the same wall time for a fresh interpreter that imports
               excomp.cli (numpy and scipy included); the first of these
               is discarded, and input generation is not counted
--trace 1 alternates untraced invocations with traced ones (traced.py) and
reports the per-layer metrics, medians over the traced invocations, and
trace.overhead_s, the traced minus the untraced median wall_s.  Count
metrics must repeat exactly between the traced invocations.

--smoke uses small meshes and one set-up sample, to exercise every metric
path in seconds.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import traced
from workloads import ORACLE_RTOL, WORKLOADS, write_helicoid_off

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3  # set-up samples per run, after one discarded
CHILD_TIMEOUT_S = 120.0
OUTPUT_FILES = ("report.json", "curves.csv", "mesh.off", "meta.json")
REPORT_FILES = ("report.json", "curves.csv")  # meta.json holds times: its size varies
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

IMPORT_PROBE = "import excomp.cli, excomp; print(excomp.__file__)"


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, or its set-up failed)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    # bytecode is cached as for an installed package (the first, discarded
    # set-up sample writes it), whatever the caller's setting
    for var in ("EXCOMP_THREADS", "EXCOMP_OUTDIR", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def stolen_seconds() -> float:
    """CPU time the hypervisor has taken from this machine's virtual CPUs
    (the steal column of /proc/stat); 0 where it is not reported."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def net_wall(wall: float, cpu: float, stolen: float) -> float:
    """Wall time less the share of it the host stole.  The child kept
    (cpu + stolen) / wall virtual CPUs busy on average, so steal spread over
    them delayed it by stolen / that (at least one CPU's worth).  On a shared
    host the steal varies from run to run by more than the bounds of the
    benchmark; the CPU time of the child does not include it."""
    busy = max(1.0, (cpu + stolen) / wall)
    return wall - stolen / busy


def spawn(cmd: list, env: dict, log: Path) -> dict:
    """Run cmd to completion with its output in log.  CPU time and peak RSS
    come from the child's own rusage (os.wait4), not RUSAGE_CHILDREN, whose
    ru_maxrss is the maximum over every child so far."""
    with open(log, "wb") as fh:
        steal0, t0 = stolen_seconds(), time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall, stolen = time.perf_counter() - t0, stolen_seconds() - steal0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return {"rc": proc.returncode, "raw_wall_s": wall, "stolen_s": stolen,
            "wall_s": net_wall(wall, cpu, stolen), "cpu_s": cpu,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def measure_setup(env: dict, work: Path, repeats: int) -> list:
    """Wall times of fresh interpreters importing excomp.cli; the first
    (which may compile bytecode) is discarded."""
    times = []
    log = work / "import.log"
    for i in range(repeats + 1):
        probe = spawn([sys.executable, "-c", IMPORT_PROBE], env, log)
        text = log.read_text().strip()
        if probe["rc"] != 0:
            raise BenchError(f"cannot import excomp.cli from {SRC}:\n{text}")
        if not Path(text).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"excomp was imported from {text}, not from {SRC}")
        if i:
            times.append(probe["wall_s"])
    return times


def check_outputs(workload, seed: int, rundir: Path, rc: int, first: dict | None):
    """Errors of one invocation, and its deterministic payload."""
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}")
    missing = [name for name in OUTPUT_FILES if not (rundir / name).is_file()]
    if missing:
        return errors + [f"missing outputs {missing}"], None
    report = json.loads((rundir / "report.json").read_text())
    payload = {key: report.get(key) for key in ("checks", "scalars", "curves")}
    verdicts = tuple((c["id"], c["verdict"]) for c in report.get("checks", []))
    if verdicts != workload.expected:
        diff = [f"{e} -> {g}" for e, g in zip(workload.expected, verdicts) if e != g]
        errors.append(f"verdicts differ ({len(verdicts)} checks, expected "
                      f"{len(workload.expected)}): {diff}")
    top = workload.top_radius(seed)
    curves = report.get("curves") or {}
    if not curves.get("grid") or abs(curves["grid"][-1] - top) > 1e-9 * top:
        errors.append(f"curve does not end at the top radius {top!r}")
    else:
        got, want = curves["vol_quotient"][-1], workload.oracle(top)
        if not abs(got - want) <= ORACLE_RTOL * want:
            errors.append(f"volume quotient {got!r} at R={top!r} misses the oracle {want!r}")
    if first is not None and payload != first:
        errors.append("checks/scalars/curves differ from the first invocation")
    return errors, payload


def report_bytes(rundir: Path) -> int:
    return sum((rundir / name).stat().st_size for name in REPORT_FILES
               if (rundir / name).is_file())


def machine() -> dict:
    info = {"nproc": nproc(), "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            info["cpu"] = models[0]
    except OSError:
        pass
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (base / "level").read_text().strip()
            kind = (base / "type").read_text().strip()
            size = (base / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"L{level}"] = size
    from importlib import metadata
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    return info


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    res = workload.smoke_res if args.smoke else workload.res
    env = child_env()
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = measure_setup(env, work, 1 if args.smoke else SETUP_REPEATS)
        mesh = None
        if workload.ingest:
            mesh = str(work / "helicoid.off")
            write_helicoid_off(mesh, res, args.seed)
        rundir = work / "out" / "run"
        cli_args = workload.cli_args(args.seed, res, mesh) + [
            "--out", str(work / "out"), "--name", "run"]
        spans_path = work / "spans.json"
        plain_cmd = [sys.executable, "-m", "excomp"] + cli_args
        traced_cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path)] + cli_args

        invocations, layers, first, failed = [], [], None, 0
        start = time.perf_counter()
        while True:
            is_traced = bool(args.trace) and len(invocations) % 2 == 1
            shutil.rmtree(rundir, ignore_errors=True)
            spans_path.unlink(missing_ok=True)
            inv = spawn(traced_cmd if is_traced else plain_cmd, env, work / "child.log")
            inv["traced"] = is_traced
            errors, payload = check_outputs(workload, args.seed, rundir, inv["rc"], first)
            first = payload if first is None else first
            if is_traced:
                if spans_path.is_file():
                    layer = traced.layer_metrics(json.loads(spans_path.read_text()))
                    layer["cli.report_bytes"] = report_bytes(rundir)
                    counts = {k: v for k, v in layer.items() if traced.UNITS[k] != "s"}
                    if layers and counts != {k: layers[0][k] for k in counts}:
                        errors.append("per-layer counts differ from the first traced invocation")
                    layers.append(layer)
                else:
                    errors.append("traced invocation wrote no spans")
            invocations.append(inv)
            print(f"invocation {len(invocations)} ({'traced' if is_traced else 'untraced'}): "
                  f"wall {inv['wall_s']:.3f} s ({inv['raw_wall_s']:.3f} s with "
                  f"{inv['stolen_s']:.2f} s stolen), cpu {inv['cpu_s']:.3f} s, "
                  f"rss {inv['peak_rss_mb']:.1f} MB" + (", FAILED" if errors else ""))
            if errors:
                failed += 1
                log_tail = (work / "child.log").read_text(errors="replace")[-2000:]
                print(f"invocation {len(invocations)} failed: {'; '.join(errors)}\n{log_tail}",
                      file=sys.stderr)
            # stop before an invocation that would end past the deadline
            elapsed = time.perf_counter() - start
            typical = statistics.median(i["raw_wall_s"] for i in invocations)
            if (elapsed + typical > args.seconds
                    and len(invocations) >= (2 if args.trace else 1)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [inv for inv in invocations if not inv["traced"]]
    if args.trace:
        metrics = traced.median_metrics(layers) if layers else {}
        metrics["trace.overhead_s"] = (
            statistics.median(inv["wall_s"] for inv in invocations if inv["traced"])
            - statistics.median(inv["wall_s"] for inv in plain))
        units = traced.UNITS
    else:
        metrics = {key: statistics.median(inv[key] for inv in plain)
                   for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setup)
        units = E2E_UNITS
    return {"workload": workload.name, "seed": args.seed, "res": res,
            "untraced": len(plain), "traced": len(layers), "setup_samples": len(setup),
            "raw_wall_s": statistics.median(inv["raw_wall_s"] for inv in plain),
            "stolen_s": sum(inv["stolen_s"] for inv in invocations),
            "attempted": len(invocations), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small meshes and one set-up sample, for a quick check")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "excomp" / "cli.py").is_file():
        print(f"error: no excomp sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(f"workload {result['workload']} (seed {result['seed']}, res {result['res']}): "
          f"{result['untraced']} untraced and {result['traced']} traced invocations, "
          f"{result['setup_samples']} set-up samples; median wall {result['raw_wall_s']:.4g} s "
          f"before removing {result['stolen_s']:.1f} s stolen by the host in all")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':32s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
