"""One measured iteration of a workload, in a fresh process.

Run by ``run.py``, never by hand: a fresh interpreter per iteration is what a
user's ``coneflow ...`` invocation costs, and it starts the program's
in-process caches cold.  The BLAS/OpenMP thread caps are set before numpy is
imported (setting them later has no effect).  The result, and in traced mode
the spans, are written as JSON into the directory given by ``--out``.

Times are reported twice: as measured (``*_raw_s``) and corrected to a
reference host speed (see :class:`HostSpeed`).
"""

import os
import time

SETUP_START = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

# Host-speed probe: KERNEL_REPS small numpy operations, like the program's
# own, every INTERVAL_S.  KERNEL_REF_S is the probe's time on an uncontended
# core of the 2.1 GHz Xeon the baseline was recorded on; it only fixes the
# scale of the corrected times.
INTERVAL_S = 0.1
KERNEL_REPS = 180
KERNEL_REF_S = 0.00088
_PROBE = np.linspace(0.0, 1.0, 401)


class HostSpeed:
    """Samples the host's speed while a phase runs.

    On a shared host a core runs 1.65x to 2x slower for seconds to minutes
    at a time (presumably another tenant on the same core), which no median
    over a short run removes.  One probe runs on entry and, while the phase
    runs, a SIGALRM handler times one every INTERVAL_S; :meth:`corrected`
    subtracts the handler's probes from a measured time and scales the rest
    by KERNEL_REF_S / mean probe time.  The probes add about 1 % to the
    phase.
    """

    def __enter__(self):
        self.samples: list = []
        self.spent = 0.0
        self._probe()  # one sample even for a phase shorter than INTERVAL_S
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _probe(self):
        started = time.perf_counter()
        for _ in range(KERNEL_REPS):
            y = _PROBE * 1.0001 + 0.5
            float(np.max(np.abs(y[1:] - y[:-1])))
        took = time.perf_counter() - started
        self.samples.append(took)
        self.spent += took

    def _tick(self, signum, frame):
        self._probe()

    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / KERNEL_REF_S

    def corrected(self, measured: float) -> float:
        return (measured - self.spent) / self.slowdown()


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Machine and library versions for the result record."""
    import numpy
    import scipy

    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        if index.startswith("index"):
            d = os.path.join(base, index)
            caches[f"L{_read(d + '/level')} {_read(d + '/type')}"] = _read(d + "/size")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", required=True)
    args = parser.parse_args()

    with HostSpeed() as host:
        import coneflow
        src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
        if not os.path.realpath(coneflow.__file__).startswith(src + os.sep):
            print(f"coneflow imported from {coneflow.__file__}, not from {src}",
                  file=sys.stderr)
            return 2

        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.out)
        wl.setup()
        setup = time.perf_counter() - SETUP_START
    result = {"setup_s": host.corrected(setup), "setup_raw_s": setup}
    if not args.setup_only:
        result.update(measure(wl, args))
    result["env"] = environment()
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def measure(wl, args) -> dict:
    import workloads

    rec = None
    if args.trace:
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)
    with HostSpeed() as host:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            wl.run()
            error = None
        except Exception:  # an exception is a failed check, not a crash
            error = traceback.format_exc()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if error is None:
        checks = wl.checks()
        try:
            with open(args.reference, encoding="utf-8") as fh:
                reference = json.load(fh)
        except FileNotFoundError:  # first recording
            reference = {}
        checks += workloads.reference_checks(args.workload, args.seed, args.tiny,
                                             wl.science, reference)
    else:
        checks = [(f"body raised: {error.strip().splitlines()[-1]}", False)]
        print(error, file=sys.stderr)
    out = {"wall_s": host.corrected(wall), "cpu_s": host.corrected(cpu),
           "wall_raw_s": wall, "cpu_raw_s": cpu, "host_slowdown": host.slowdown(),
           "peak_rss_mb": rss_mb,
           "checks": [[label, bool(ok)] for label, ok in checks],
           "science": wl.science}
    if rec is not None:
        rec.dump(os.path.join(args.out, "spans.json"))
    return out


if __name__ == "__main__":
    sys.exit(main())
