"""spamfriction benchmark: one workload run per invocation.

    python3 perfbench/run.py --workload ham-small --seed 1 --seconds 10 --trace 0

Each workload (ham-small, ham-bulk, spam-pow) starts the receiving server as
its own process (perfbench/server.py) and drives it over loopback from this
process with at most ``nproc`` client threads, one connection each.

Each run sets up several times and reports the median set-up time, warms up,
then measures for ``--seconds`` and checks what was delivered.  For the
whole run every CPU holds an idle-priority spinner (perfbench/keepawake.py),
so that no CPU halts between replies and the latency of waking it does not
enter the figures.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the untraced phase is followed by a
traced one against a fresh server, then by SIM_PASSES traced passes of the
simulator scenarios in this process, and the JSON holds the per-layer
metrics and ``trace.overhead_share``.  Metric names and units come from
BENCHMARK.json.  ``attempted`` counts every message sent (warm-up included)
and, in traced runs, every simulator pass; ``failed`` counts the messages
not delivered and the passes that failed a check.  Lines before the last
one describe the environment and every measured value.

Exit status: 0 when every check passed, 1 when a correctness check failed,
2 when the program's sources are not there to benchmark.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the program is benchmarked from its sources here; modules that import it
# (loadgen, simload, spamfriction) are imported only once main() has put
# SRC first on sys.path
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCH_YAML = HERE / "bench.yaml"

WORKLOADS = ("ham-small", "ham-bulk", "spam-pow")
SETUP_REPEATS = 5
SIM_PASSES = 5
# puzzle.solve.hashes_total covers this many solves from the start of the
# timed phase, so that it is exact for a fixed seed whatever the run length
HASH_WINDOW = 64
CHILD_TIMEOUT = 30.0
WRAPPED = (
    "smtp.client_send", "smtp.read_reply", "puzzle.solve", "smtp.handle_line", "scoring.score",
    "policy.decide", "puzzle.generate_challenge", "puzzle.verify_and_consume", "smtp.deliver",
    "config.load_config",
)
RUN_LIMIT_S = 170
DEFAULTS_NOTE = (
    "LegacyPolicy, puzzle_ttl and the store capacity keep their defaults on purpose: "
    "consumed nonces stay in the store for 7200 s and a full store replies 452, so a "
    "later change to either shows up as a change here. spam-pow uses 1 client, so the "
    "default refuse-connections limit of one burdened session per host is never the bottleneck."
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU of a whole process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def host_speed_kops(seconds: float = 0.2) -> float:
    """Thousands of SHA-256 digests of short strings per second, in this
    file's own loop: how fast the host runs Python right now.  This host's
    speed drifts by up to 2x within a minute; the figure lets a reader tell
    a slow host from a slow program."""
    sha256 = hashlib.sha256
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for i in range(count, count + 1000):
            sha256(b"perfbench:%d" % i).digest()
        count += 1000
    return count / (time.perf_counter() - start) / 1000.0


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Children:
    """Processes this run started; each is stopped and waited for."""

    def __init__(self, stack: contextlib.ExitStack, workdir: Path):
        self.stack = stack
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")

    def popen(self, name: str, argv: list[str]) -> subprocess.Popen:
        log = open(self.workdir / f"{name}.stderr", "wb")
        self.stack.callback(log.close)
        proc = subprocess.Popen(
            [sys.executable, *argv], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=log, env=self.env, cwd=ROOT,
        )
        self.stack.callback(_reap, proc)
        return proc

    def stderr_of(self, name: str) -> str:
        return (self.workdir / f"{name}.stderr").read_text(errors="replace")[-2000:]


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
        try:
            proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe and not pipe.closed:
            pipe.close()


class MailServer:
    """One server process; ``setup_s`` runs from spawn to the first accepted
    connection (the greeting read on it)."""

    def __init__(self, children: Children, name: str, seed: int, trace: bool, fault: str | None):
        self.children = children
        self.name = name
        self.dir = children.workdir / name
        self.dir.mkdir()
        self.sink_dir = self.dir / "mbox"
        self.stats_path = self.dir / "stats.json"
        self.spans_path = self.dir / "spans.json" if trace else None
        argv = [
            str(HERE / "server.py"), "--config", str(BENCH_YAML), "--sink-dir", str(self.sink_dir),
            "--log", str(self.dir / "server.log"), "--seed", str(seed), "--stats", str(self.stats_path),
        ]
        if trace:
            argv += ["--trace", str(self.spans_path)]
        if fault:
            argv += ["--inject-fault", fault]
        start = time.perf_counter()
        self.proc = children.popen(name, argv)
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited before listening:\n{children.stderr_of(name)}")
        self.port = json.loads(line)["port"]
        with socket.create_connection(("127.0.0.1", self.port), timeout=CHILD_TIMEOUT) as sock:
            with sock.makefile("rb") as rfile:
                greeting = rfile.readline()
                self.setup_s = time.perf_counter() - start
                sock.sendall(b"QUIT\r\n")
                rfile.readline()
        if not greeting.startswith(b"250 "):
            raise RuntimeError(f"unexpected greeting {greeting!r}")

    def close(self) -> None:
        """Ask the server to shut down without waiting for it."""
        self.proc.stdin.close()

    def stop(self) -> dict:
        _reap(self.proc)
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"server exited with {self.proc.returncode}:\n{self.children.stderr_of(self.name)}"
            )
        return json.loads(self.stats_path.read_text())


# -- mail workloads -------------------------------------------------------------


@dataclass
class MailPhase:
    records: list
    timed: list
    t0: float
    t1: float
    server_cpu: float
    client_cpu: float
    rss_mib: float
    stats: dict
    problems: list[str]
    spans: list = field(default_factory=list)
    folds: list = field(default_factory=list)


def mail_phase(workload, seed: int, seconds: float, server: MailServer, clients: int, traced: bool) -> MailPhase:
    import loadgen
    from spamfriction import puzzle as pow
    from spamfriction import smtp

    driver = loadgen.Driver(("127.0.0.1", server.port), count_writes=traced)
    undo: list = []
    recorder = spans.Recorder(first_id=1) if traced else None
    streams = [loadgen.messages(workload, seed, c) for c in range(clients)]
    try:
        driver.install(undo)
        if recorder:
            recorder.wrap(smtp, "client_send", "smtp.client_send")
            recorder.wrap(smtp, "read_reply", "smtp.read_reply")
            recorder.wrap(pow, "solve", "puzzle.solve",
                          after=lambda receipt, args: loadgen.solve_attempts(receipt))
        # warm-up: connections, imports, and the client's one-time hash-rate
        # calibration on its first puzzle all happen before timing starts
        warm = driver.drive(streams, count=workload.warmup_per_client, recorder=recorder)
        cpu0, pt0, gen0 = proc_cpu_seconds(server.proc.pid), time.process_time(), driver.generate_cpu
        t0 = time.perf_counter()
        timed = driver.drive(streams, deadline=t0 + seconds, recorder=recorder)
        t1 = time.perf_counter()
        pt1, cpu1, gen1 = time.process_time(), proc_cpu_seconds(server.proc.pid), driver.generate_cpu
        rss = vm_hwm_mib(server.proc.pid)
    finally:
        if recorder:
            recorder.restore()
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    stats = server.stop()
    records = warm + timed
    problems = loadgen.check_mail(records, str(server.sink_dir))
    phase = MailPhase(records, timed, t0, t1, cpu1 - cpu0, (pt1 - pt0) - (gen1 - gen0), rss, stats, problems)
    if recorder:
        server_spans, phase.folds = spans.load(str(server.spans_path))
        phase.spans = recorder.spans + server_spans
    return phase


def mail_e2e(phase: MailPhase, setups: list[float], notes: dict) -> dict[str, float]:
    import loadgen

    ok = [r for r in phase.timed if loadgen.delivered(r)]
    if not ok:
        raise RuntimeError("no message was delivered in the timed phase")
    latencies = [(r.end - r.start) * 1000.0 for r in ok]
    tail, pct, n = spans.tail(latencies)
    notes.update(
        latency_tail_percentile=pct, latency_samples=n, timed_attempted=len(phase.timed),
        failed_share=(len(phase.timed) - len(ok)) / len(phase.timed),
    )
    return {
        "setup_s": spans.median(setups),
        "latency_p50_ms": spans.median(latencies),
        "latency_tail_ms": tail,
        "delivered_per_s": len(ok) / (phase.t1 - phase.t0),
        "server_cpu_ms_per_msg": phase.server_cpu * 1000.0 / len(ok),
        "client_cpu_ms_per_msg": phase.client_cpu * 1000.0 / len(ok),
        "server_rss_peak_mib": phase.rss_mib,
    }


def mail_layers(phase: MailPhase, untraced_p50_ms: float, notes: dict) -> dict[str, float]:
    """Per-layer metrics of the timed part of a traced phase.  Metrics of an
    entry point the workload never calls (the solver on ham) read 0, and the
    notes name those entry points."""
    import loadgen

    timed_seqs = {r.seq for r in phase.timed}
    n = len(phase.timed)
    latency_s = sum(r.end - r.start for r in phase.timed)
    self_time = spans.self_times(phase.spans)
    by_name: dict[str, list] = {}
    for span in phase.spans:
        # client spans belong to a timed message; server spans to the timed window
        in_window = span[5] in timed_seqs if isinstance(span[5], str) else phase.t0 <= span[2] <= phase.t1
        if in_window or span[1] == "config.load_config":
            by_name.setdefault(span[1], []).append(span)

    def durations(name):
        return [s[3] - s[2] for s in by_name.get(name, [])]

    def self_sum(name):
        return sum(self_time[s[0]] for s in by_name.get(name, []))

    def us_p50(name):
        return spans.median(durations(name)) * 1e6

    lines = by_name.get("smtp.handle_line", [])
    command_lines = [s[3] - s[2] for s in lines if not s[6][0][0]]
    # DATA state: the folded body lines plus each message's final "." line
    body = [f for f in phase.folds if f[0] == "smtp.handle_line" and phase.t0 <= f[5] <= phase.t1]
    dots = [s for s in lines if s[6][0][0]]
    data_s = sum(f[3] for f in body) + sum(self_time[s[0]] for s in dots)
    data_kib = (sum(f[4] for f in body) + sum(s[6][0][1] for s in dots)) / 1024.0
    session_self: dict = {}
    for s in lines:
        session_self[s[5]] = session_self.get(s[5], 0.0) + self_time[s[0]]
    for f in body:
        session_self[f[1]] = session_self.get(f[1], 0.0) + f[3]
    solves = sorted(by_name.get("puzzle.solve", []), key=lambda s: s[2])
    solve_s = sum(s[3] - s[2] for s in solves)
    hashes = sum(s[6][1] for s in solves)
    scores = by_name.get("scoring.score", [])
    score_kib = sum(s[6][0] for s in scores) / 1024.0
    verifies = by_name.get("puzzle.verify_and_consume", [])
    kinds = [s[6][1] for s in by_name.get("policy.decide", [])]
    traced_p50 = spans.median([(r.end - r.start) * 1000.0 for r in phase.timed if loadgen.delivered(r)])
    stats = phase.stats
    notes["entry_points_not_called"] = sorted(
        name for name in WRAPPED if not by_name.get(name)
    ) + ([] if body else ["smtp.handle_line in DATA state"])
    return {
        "smtp.client.replies_per_msg": len(by_name.get("smtp.read_reply", [])) / n,
        "smtp.client.writes_per_msg": sum(r.writes for r in phase.timed) / n,
        "smtp.client.wait_ms_per_msg": sum(durations("smtp.read_reply")) * 1000.0 / n,
        "smtp.client.wait_share": sum(durations("smtp.read_reply")) / latency_s,
        "smtp.client.self_ms_per_msg": self_sum("smtp.client_send") * 1000.0 / n,
        "smtp.handle_line.us_p50": spans.median(command_lines) * 1e6,
        "smtp.session.self_ms_p50": spans.median(list(session_self.values())) * 1000.0,
        "smtp.session.self_ms_per_msg": sum(session_self.values()) * 1000.0 / n,
        "smtp.data.us_per_kib": data_s * 1e6 / data_kib if data_kib else 0.0,
        "smtp.deliver.us_p50": us_p50("smtp.deliver"),
        "smtp.sink.self_ms_per_msg": self_sum("smtp.deliver") * 1000.0 / n,
        "smtp.import_ms": stats["import_ms"],
        "smtp.connections_refused": stats["connections_refused"],
        "puzzle.solve.hashes_per_s": hashes / solve_s if solve_s else 0.0,
        "puzzle.solve.share_of_latency": solve_s / latency_s,
        "puzzle.solve.hashes_total": sum(s[6][1] for s in solves[:HASH_WINDOW]),
        "puzzle.client.self_ms_per_msg": solve_s * 1000.0 / n,
        "puzzle.generate_challenge.us_p50": us_p50("puzzle.generate_challenge"),
        "puzzle.verify_and_consume.us_p50": us_p50("puzzle.verify_and_consume"),
        "puzzle.verify.accepted_ratio": sum(1 for s in verifies if s[6][1]) / len(verifies) if verifies else 0.0,
        "puzzle.server.self_ms_per_msg":
            (self_sum("puzzle.generate_challenge") + self_sum("puzzle.verify_and_consume")) * 1000.0 / n,
        "puzzle.store.entries_end": stats["store_entries"],
        "scoring.score.us_p50": us_p50("scoring.score"),
        "scoring.score.us_per_kib": sum(durations("scoring.score")) * 1e6 / score_kib if score_kib else 0.0,
        "scoring.degraded_calls": stats["degraded_calls"],
        "scoring.self_ms_per_msg": self_sum("scoring.score") * 1000.0 / n,
        "policy.decide.us_p50": us_p50("policy.decide"),
        "policy.decisions.accept": kinds.count("accept"),
        "policy.decisions.resist": kinds.count("resist"),
        "policy.decisions.blocked": kinds.count("blocked"),
        "policy.self_ms_per_msg": self_sum("policy.decide") * 1000.0 / n,
        "config.load_config.ms": sum(durations("config.load_config")) * 1000.0,
        "trace.overhead_share": traced_p50 / untraced_p50_ms - 1.0,
    }


def run_mail(children: Children, name: str, seed: int, seconds: float, trace: bool, fault: str | None) -> Outcome:
    import loadgen
    from spamfriction.config import load_config

    workload = loadgen.MAIL_WORKLOADS[name]
    clients = min(workload.clients, len(os.sched_getaffinity(0)))
    app = load_config(str(BENCH_YAML))
    out = Outcome()
    out.notes.update(clients=clients, difficulty=app.policy.base_difficulty, hash_window=HASH_WINDOW)
    servers = []
    for i in range(SETUP_REPEATS):
        if servers:
            servers[-1].close()
        servers.append(MailServer(children, f"server{i}", seed, trace=False, fault=fault))
    for earlier in servers[:-1]:
        earlier.stop()
    server = servers[-1]
    setups = [s.setup_s for s in servers]
    out.notes["setup_s_samples"] = setups
    phases = [mail_phase(workload, seed, seconds, server, clients, traced=False)]
    out.e2e = mail_e2e(phases[0], setups, out.notes)
    if trace:
        server = MailServer(children, "traced", seed, trace=True, fault=fault)
        phases.append(mail_phase(workload, seed, seconds, server, clients, traced=True))
        out.layers = mail_layers(phases[1], out.e2e["latency_p50_ms"], out.notes)
        out.notes.update(
            traced_spans=len(phases[1].spans), traced_server_rss_peak_mib=phases[1].rss_mib,
            generator_rss_peak_mib=vm_hwm_mib(os.getpid()),
        )
    for phase in phases:
        out.attempted += len(phase.records)
        failures = [r for r in phase.records if not loadgen.delivered(r)]
        out.failed += len(failures)
        out.problems += phase.problems
        out.notes.setdefault("failures", []).extend(f"{r.seq}: {r.status}" for r in failures[:5])
    return out


# -- simulator layer --------------------------------------------------------------


def sim_layers(seed: int, out: Outcome) -> None:
    """SIM_PASSES traced passes of ``sim.run`` over the simulator scenarios,
    in this process and without a socket: the sim layer's per-layer metrics
    and its checks.  Each pass counts as one attempted operation."""
    import simload
    from spamfriction import sim

    configs = simload.scenarios(sim, seed)
    names = {id(config): name for name, config in configs.items()}
    recorder = spans.Recorder(first_id=2 * 10**12)
    recorder.wrap(sim, "run", "sim.run", before=lambda args: names[id(args[0])])
    try:
        for _ in range(SIM_PASSES):
            reports = {name: sim.run(config) for name, config in configs.items()}
            found = [problem for name, report in reports.items() for problem in simload.check_report(name, report)]
            out.attempted += 1
            out.failed += bool(found)
            out.problems += found
    finally:
        recorder.restore()
    runs: dict[str, list[float]] = {}
    for span in recorder.spans:
        runs.setdefault(span[6][0], []).append((span[3] - span[2]) * 1000.0)
    out.layers.update({f"sim.run.{name}.ms": spans.median(runs[name]) for name in configs})
    out.layers["sim.overflow.refused"] = sum(c.refused for c in reports["overflow"].cohorts)
    out.layers["sim.self_ms_per_pass"] = sum(map(sum, runs.values())) / SIM_PASSES


# -- entry point --------------------------------------------------------------------


def _declared(section: str) -> dict[str, str]:
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in data[section]}


def _report(declared: dict[str, str], measured: dict[str, float]) -> dict:
    if set(measured) != set(declared):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {sorted(set(measured) ^ set(declared))}")
    return {name: {"value": float(measured[name]), "unit": unit} for name, unit in declared.items()}


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spamfriction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", choices=("drop-delivery",),
                        help="self-test: make the server lose one delivery")
    args = parser.parse_args(argv)
    if not (SRC / "spamfriction" / "__init__.py").is_file():
        print(f"cannot benchmark: no spamfriction sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    host_before = host_speed_kops()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        with contextlib.ExitStack() as stack:
            children = Children(stack, workdir)
            for cpu in cpus:
                children.popen(f"keepawake{cpu}", [str(HERE / "keepawake.py"), str(cpu)])
            out = run_mail(children, args.workload, args.seed, args.seconds, bool(args.trace),
                           args.inject_fault)
            if args.trace:
                sim_layers(args.seed, out)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    metrics = _report(_declared("per_layer" if args.trace else "end_to_end"), out.layers if args.trace else out.e2e)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(cpus), "cpus_kept_awake": cpus, "python": platform.python_version(),
        "git_sha": _git_sha(), "network": "loopback (127.0.0.1) only",
        "defaults": DEFAULTS_NOTE,
        "host_speed_kops_before_after": [host_before, host_speed_kops()],
    }
    print("env " + json.dumps(env))
    print("notes " + json.dumps(out.notes))
    if args.trace:
        for name, metric in _report(_declared("end_to_end"), out.e2e).items():
            print(f"untraced {name} = {metric['value']:.6g} {metric['unit']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    # not a BENCHMARK.json metric, which must never read 0; the JSON carries
    # it as failed over attempted
    print(f"failed_share = {out.failed / out.attempted:.6g} share")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not out.problems, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
    }))
    return 0 if not out.problems else 1


if __name__ == "__main__":
    sys.exit(main())
