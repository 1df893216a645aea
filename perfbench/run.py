#!/usr/bin/env python3
"""Build and run the PEAK benchmark.

One workload (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload tune-unclassed --seed 1 --seconds 30 --trace 0

builds the benchmark and the peak-tuned daemon with dune, runs the
workload and passes its output through; the last line is the metrics
object.  Exit status is the workload's (1 when a check failed, 2 when
the build failed).

Every workload, untraced and traced, with the same seed:

    python3 perfbench/run.py --all --seed 1 --seconds 30

writes .bench_build/peakbench/report.json and fails unless every run
is correct and the deterministic fingerprint of the untraced and the
traced run agree exactly.

Run-to-run spread of one workload over several seeds:

    python3 perfbench/run.py --spread 5 --workload serve-mixed --seconds 30

prints each end-to-end metric's median and quartile spread (IQR over
median, as statistics.quantiles(values, n=4) gives the quartiles).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["tune-unclassed", "suite-classed", "serve-mixed"]
EXE = os.path.join("_build", "default", "perfbench", "peakbench.exe")
DAEMON = os.path.join("_build", "default", "bin", "peak_tuned.exe")
OUT = os.path.join(".bench_build", "peakbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    cmd = ["dune", "build", "--root", ".", "./perfbench/peakbench.exe", "./bin/peak_tuned.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"run.py: cannot run dune: {e}")
        return False
    return done.returncode == 0


def commit():
    """The git commit when the checkout is a repository, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha1()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def command(workload, seed, seconds, trace, rev):
    return [os.path.join(ROOT, EXE), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--peak-tuned", DAEMON,
            "--commit", rev]


def run_captured(workload, seed, seconds, trace, rev):
    """Run one workload; returns (exit code, report, final metrics object)."""
    done = subprocess.run(command(workload, seed, seconds, trace, rev), cwd=ROOT,
                          capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    report = final = None
    try:
        final = json.loads(lines[-1])
        report = json.loads(lines[-2])
    except (IndexError, ValueError):
        pass
    return done.returncode, report, final


def all_workloads(seed, seconds):
    rev = commit()
    runs, ok = [], True
    for w in WORKLOADS:
        fingerprints = []
        for trace in (0, 1):
            code, report, final = run_captured(w, seed, seconds, trace, rev)
            good = code == 0 and final is not None and final.get("correct") is True
            ok &= good
            log(f"{w} trace={trace}: {'ok' if good else 'FAILED'} (exit {code})")
            runs.append({"workload": w, "trace": trace, "exit": code, "report": report,
                         "result": final})
            if report:
                fingerprints.append(report["fingerprint"])
                for name, m in (final or {}).get("metrics", {}).items():
                    print(f"{w:15s} {name:36s} {m['value']:14.6g} {m['unit']}")
        same = len(fingerprints) == 2 and fingerprints[0] == fingerprints[1]
        ok &= same
        log(f"{w}: deterministic fingerprint {'repeats' if same else 'DIFFERS'}: {fingerprints}")
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    path = os.path.join(ROOT, OUT, "report.json")
    with open(path, "w") as fh:
        json.dump({"seed": seed, "seconds": seconds, "commit": rev, "ok": ok, "runs": runs}, fh,
                  indent=1)
    log(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def spread(workload, n, seconds, first_seed):
    rev = commit()
    values = {}
    for seed in range(first_seed, first_seed + n):
        code, _, final = run_captured(workload, seed, seconds, 0, rev)
        if code != 0 or final is None:
            log(f"seed {seed}: FAILED (exit {code})")
            return 1
        for name, m in final["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print(f"{name:20s} median {med:12.6g}  spread {(q3 - q1) / med if med else 0.0:7.4f}")
    return 0


def main():
    p = argparse.ArgumentParser(description="Build and run the PEAK benchmark.")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--spread", type=int, metavar="N")
    a = p.parse_args()
    if not build():
        log("run.py: build failed")
        return 2
    if a.all:
        return all_workloads(a.seed, a.seconds)
    if a.workload is None:
        p.error("--workload is required")
    if a.spread:
        return spread(a.workload, a.spread, a.seconds, a.seed)
    # the benchmark replaces this process, so signals reach it directly
    cmd = command(a.workload, a.seed, a.seconds, a.trace, commit())
    os.chdir(ROOT)
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    sys.exit(main())
