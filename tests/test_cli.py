"""Command line interface and YAML configuration handling."""
import csv
import io
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from conftest import build_core
from spamfriction import cli
from spamfriction.clock import SystemClock
from spamfriction.config import (
    AppConfig,
    ConfigError,
    build_app_config,
    dump_effective,
    effective_dict,
    load_config,
    parse_endpoint,
)
from spamfriction.smtp import PowSmtpServer, start_server


# -- argument handling -------------------------------------------------------


def test_usage_errors_exit_64():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 64
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 64
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["send"])  # missing --from/--to
    assert excinfo.value.code == 64


# -- solve / verify / calibrate ------------------------------------------------


def test_solve_prints_receipt(capsys):
    assert cli.main(["solve", "0:8:424242424242424"]) == 0
    assert capsys.readouterr().out.strip() == "0:8:424242424242424:26"


def test_solve_rejects_bad_wire(capsys):
    assert cli.main(["solve", "not-a-puzzle"]) == 64
    assert "bad puzzle" in capsys.readouterr().err


def test_solve_attempt_cap_gives_up(capsys):
    assert cli.main(["solve", "0:16:12345", "--attempt-cap", "5"]) == 2
    assert "gave up" in capsys.readouterr().err


def test_solve_negative_attempt_cap_is_a_usage_error(capsys):
    assert cli.main(["solve", "0:8:123", "--attempt-cap", "-5"]) == 64
    assert "attempt_cap" in capsys.readouterr().err


def test_verify_accepts_and_rejects(capsys):
    assert cli.main(["verify", "0:8:424242424242424:26"]) == 0
    assert "ok" in capsys.readouterr().out
    assert cli.main(["verify", "0:8:424242424242424:27"]) == 3
    assert "invalid" in capsys.readouterr().err
    assert cli.main(["verify", "0:8:nope"]) == 64
    # algorithm 7 is not implemented, so no receipt for it can be checked
    assert cli.main(["verify", "7:0:1:1"]) == 3
    assert "cannot verify" in capsys.readouterr().err


def test_solve_verify_round_trip(capsys):
    assert cli.main(["solve", "0:10:555555555555555555"]) == 0
    receipt = capsys.readouterr().out.strip()
    assert cli.main(["verify", receipt]) == 0


def test_calibrate_reports_difficulty(capsys):
    assert cli.main(["calibrate", "--target", "1.0", "--bench-duration", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "hash_rate=" in out
    assert "difficulty=" in out
    assert "suggested_ttl=" in out


def test_calibrate_validates_bench(capsys):
    assert cli.main(["calibrate", "--bench-duration", "0.01"]) == 64


# -- simulate --------------------------------------------------------------------


def test_simulate_preset_table(capsys):
    assert cli.main(["simulate", "--preset", "paper-20"]) == 0
    out = capsys.readouterr().out
    assert "simulated cost ratio" in out
    assert "users" in out and "botnet" in out


def test_simulate_csv(capsys):
    assert cli.main(["simulate", "--preset", "paper-999", "--csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][0] == "cohort"
    assert len(rows) == 3


def test_simulate_custom_cohorts(capsys):
    code = cli.main(
        [
            "simulate",
            "--cohort", "users:ham:10:5",
            "--cohort", "bots:spam:10",
            "--fp", "0.01", "--fn", "0.01",
            "--burden", "60", "--day-seconds", "600", "--seed", "4",
        ]
    )
    assert code == 0
    assert "bots" in capsys.readouterr().out


def test_simulate_bad_cohort_spec(capsys):
    assert cli.main(["simulate", "--cohort", "only-two:fields"]) == 64
    assert cli.main(["simulate", "--cohort", "x:ham:1:2:3:4"]) == 64


def test_simulate_seed_override_changes_output(capsys):
    cli.main(["simulate", "--preset", "paper-20", "--csv"])
    first = capsys.readouterr().out
    cli.main(["simulate", "--preset", "paper-20", "--csv", "--seed", "123"])
    second = capsys.readouterr().out
    assert first != second


def test_simulate_sweep(capsys):
    code = cli.main(
        [
            "simulate", "--cohort", "users:ham:5:10", "--cohort", "bots:spam:5",
            "--sweep-accuracies", "0.95,0.999", "--sweep-burdens", "60,3600", "--csv",
        ]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 5  # header + 2x2 grid
    assert cli.main(["simulate", "--sweep-accuracies", "0.95"]) == 64


def test_simulate_sweep_table(capsys):
    code = cli.main(
        [
            "simulate", "--cohort", "users:ham:5:10", "--cohort", "bots:spam:5",
            "--sweep-accuracies", "0.95,1.0", "--sweep-burdens", "60,3600",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["fp", "fn", "burden", "ham", "avg", "spam", "avg", "sim", "ratio", "analytic"]
    rows = [line.split() for line in lines[1:]]
    assert [(row[0], row[2]) for row in rows] == [
        ("0.0500", "60"), ("0.0500", "3600"), ("0.0000", "60"), ("0.0000", "3600"),
    ]
    for row in rows[2:]:
        assert row[-2:] == ["inf", "inf"]


@pytest.mark.parametrize("args, field", [
    (["--burden", "inf"], "burden_seconds"),
    (["--day-seconds", "inf"], "day_seconds"),
    (["--sweep-accuracies", "0.99", "--sweep-burdens", "60,inf"], "burden_seconds"),
])
def test_simulate_rejects_infinite_durations(args, field, capsys):
    assert cli.main(["simulate", *args]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"simulate: {field} must be finite")
    assert captured.err.count("\n") == 1


# -- configuration ------------------------------------------------------------------


def test_parse_endpoint_forms():
    assert parse_endpoint("127.0.0.1:2525") == ("127.0.0.1", 2525)
    assert parse_endpoint("[::1]:99") == ("::1", 99)
    with pytest.raises(ValueError):
        parse_endpoint("no-port")
    with pytest.raises(ValueError):
        parse_endpoint("host:notaport")
    with pytest.raises(ValueError):
        parse_endpoint("host:99999")


def test_load_config_defaults_when_missing_sections(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text("{}")
    app = load_config(str(path))
    assert app.server.listen == ("127.0.0.1", 2525)
    assert app.policy.resist_threshold == 0.05


def test_load_config_reads_values(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text(
        """
server:
  listen: "0.0.0.0:2626"
  hostname: mx.test
  sink_dir: /var/mail/test
  pow_algorithms: [0, 3]
policy:
  resist_threshold: 0.2
  base_difficulty: 12
  whitelist: ["*.friends.example"]
  sinbin:
    max_refusals: 5
scorer:
  token_weights:
    spam: 5.0
legacy:
  overload_mode: temp-reject
client:
  work_budget_seconds: 3.0
"""
    )
    app = load_config(str(path))
    assert app.server.listen == ("0.0.0.0", 2626)
    assert app.server.hostname == "mx.test"
    assert app.server.sink_dir == "/var/mail/test"
    assert app.server.pow_algorithms == (0, 3)
    assert app.policy.resist_threshold == 0.2
    assert app.policy.base_difficulty == 12
    assert "*.friends.example" in app.policy.whitelist
    assert app.policy.sinbin.max_refusals == 5
    assert app.scorer.token_weights == {"spam": 5.0}
    assert app.legacy.overload_mode == "temp-reject"
    assert app.client.work_budget_seconds == 3.0


def test_unknown_keys_rejected(tmp_path):
    for body in (
        "server:\n  hostnme: oops\n",
        "polcy:\n  resist_threshold: 0.1\n",
        "policy:\n  sinbin:\n    windw: 60\n",
    ):
        path = tmp_path / "bad.yaml"
        path.write_text(body)
        with pytest.raises(ConfigError):
            load_config(str(path))


def test_invalid_values_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("policy:\n  resist_threshold: 2.0\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("legacy:\n  overload_mode: panic\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_bad_yaml_and_missing_file(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("server: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.yaml"))


# every key set to a value other than its default
ALL_KEYS_YAML = """
server:
  listen: "[::1]:2626"
  sink_dir: /var/mail/test
  store_capacity: 7
  hostname: mx.test
  max_message_bytes: 1000
  advertise_auth: false
  advertise_starttls: false
  pow_algorithms: [0, 3]
  puzzle_ttl: 60.5
policy:
  resist_threshold: 0.2
  mode: graduated
  base_difficulty: 12
  graduated_buckets: [[0.5, 10], [1.0, 14]]
  jitter_bits: 2
  whitelist: ["*.Friends.example", "boss@example.org"]
  sinbin: {max_refusals: 5, window: 60, block_duration: 120}
scorer:
  mode: external
  token_weights: {spam: 5.0, lunch: -2}
  endpoint: "127.0.0.1:7070"
  timeout: 2.5
  fallback: 0.5
legacy:
  pre_accept_delay: 5
  max_connections_per_host: 3
  overload_mode: escalate-difficulty
client:
  helo_name: sender.test
  supported_algorithms: [0, 1]
  work_budget_seconds: 3.0
  hash_rate: 123456.0
  max_reissues: 4
"""


def _leaves(mapping, prefix=""):
    """(dotted key, value) for every configuration key; token weights are one value."""
    for key, value in mapping.items():
        if isinstance(value, dict) and key != "token_weights":
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def test_effective_config_round_trips():
    custom = build_app_config(yaml.safe_load(ALL_KEYS_YAML))
    defaults = dict(_leaves(effective_dict(AppConfig())))
    assert [k for k, v in _leaves(effective_dict(custom)) if v == defaults[k]] == []
    for app in (AppConfig(), custom):
        once = effective_dict(app)
        rebuilt = build_app_config(yaml.safe_load(dump_effective(app)))
        assert effective_dict(rebuilt) == once


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    documented = yaml.safe_load(block)
    assert dict(_leaves(documented)).keys() == dict(_leaves(effective_dict(AppConfig()))).keys()
    build_app_config(documented)  # and the example is itself a valid configuration


def test_config_errors_exit_78(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    for body, key in (
        ("server:\n  hostnme: oops\n", "hostnme"),
        # one body-size limit: the session's server.max_message_bytes
        ("scorer:\n  max_body_bytes: 1000\n", "max_body_bytes"),
        # a bool takes only a YAML boolean, a string only a YAML string
        ("server:\n  advertise_auth: 'no'\n", "server.advertise_auth"),
        ("server:\n  hostname: null\n", "server.hostname"),
        # an int takes only a YAML int, a float only a YAML int or float,
        # and a bool is neither; list entries, bucket pairs and token
        # weights follow the same rules
        ("policy:\n  base_difficulty: 20.9\n", "policy.base_difficulty"),
        ("policy:\n  sinbin:\n    max_refusals: true\n", "policy.sinbin.max_refusals"),
        ("server:\n  puzzle_ttl: '60'\n", "server.puzzle_ttl"),
        ("server:\n  pow_algorithms: ['1', true]\n", "server.pow_algorithms"),
        ("server:\n  pow_algorithms: [1, true]\n", "server.pow_algorithms"),
        ("policy:\n  whitelist: [1, true]\n", "policy.whitelist"),
        ("policy:\n  graduated_buckets: [[0.5, 12.5]]\n", "policy.graduated_buckets"),
        ("scorer:\n  token_weights:\n    spam: false\n", "scorer.token_weights.spam"),
        ("server:\n  puzzle_ttl: 1" + "0" * 400 + "\n", "server.puzzle_ttl"),
        ("policy:\n  base_difficulty: 1" + "0" * 5000 + "\n", "bad YAML"),
        # client values the dialogue could not act on
        ("client:\n  hash_rate: -5\n", "hash_rate"),
        ("client:\n  hash_rate: .nan\n", "hash_rate"),
        ("client:\n  work_budget_seconds: -1\n", "work_budget_seconds"),
        ("client:\n  work_budget_seconds: .inf\n", "work_budget_seconds"),
        ("client:\n  work_budget_seconds: .nan\n", "work_budget_seconds"),
        ("client:\n  max_reissues: -1\n", "max_reissues"),
        ("client:\n  supported_algorithms: [0, -1]\n", "supported_algorithms"),
        ("client:\n  helo_name: ''\n", "helo_name"),
        ("server:\n  store_capacity: 0\n", "store_capacity"),
        # durations that load but would break serving: a socket timeout,
        # a puzzle's expiry, the legacy delay and the sin bin's clocks
        ("scorer:\n  timeout: -1\n", "timeout"),
        ("scorer:\n  timeout: .nan\n", "timeout"),
        ("scorer:\n  timeout: 0\n", "timeout"),
        ("server:\n  puzzle_ttl: .inf\n", "puzzle_ttl"),
        ("server:\n  puzzle_ttl: .nan\n", "puzzle_ttl"),
        ("legacy:\n  pre_accept_delay: .inf\n", "pre_accept_delay"),
        ("legacy:\n  pre_accept_delay: .nan\n", "pre_accept_delay"),
        ("policy:\n  sinbin:\n    block_duration: .nan\n", "block_duration"),
        ("policy:\n  sinbin:\n    window: .nan\n", "window"),
    ):
        path.write_text(body)
        assert cli.main(["serve", "--config", str(path), "--dump-effective-config"]) == 78
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err


def test_dump_effective_config(tmp_path, capsys):
    path = tmp_path / "app.yaml"
    path.write_text("policy:\n  base_difficulty: 13\n")
    code = cli.main(
        ["serve", "--config", str(path), "--listen", "127.0.0.1:9999", "--dump-effective-config"]
    )
    assert code == 0
    data = yaml.safe_load(capsys.readouterr().out)
    assert data["policy"]["base_difficulty"] == 13
    assert data["server"]["listen"] == "127.0.0.1:9999"
    # defaults are merged in
    assert data["legacy"]["overload_mode"] == "refuse-connections"


# -- send against a live server --------------------------------------------------


@pytest.fixture
def live_server():
    core = build_core(clock=SystemClock())
    server, addr = start_server(core)
    yield core, f"{addr[0]}:{addr[1]}"
    server.shutdown()
    server.server_close()


def test_send_delivers_and_exits_zero(live_server, tmp_path, capsys):
    core, addr = live_server
    body = tmp_path / "msg.txt"
    body.write_bytes(b"subject: lunch\n\nmeeting friend")
    code = cli.main(
        ["send", "--server", addr, "--from", "a@example.org", "--to", "b@example.net",
         "--body-file", str(body)]
    )
    assert code == 0
    assert "delivered id=" in capsys.readouterr().out
    assert len(core.sink.messages) == 1


def test_send_refuses_heavy_burden(tmp_path, capsys):
    core = build_core(clock=SystemClock(), difficulty=40)
    server, addr = start_server(core)
    try:
        body = tmp_path / "msg.txt"
        body.write_bytes(b"buy spam pills")
        code = cli.main(
            ["send", "--server", f"{addr[0]}:{addr[1]}", "--from", "a@x", "--to", "b@y",
             "--body-file", str(body), "--budget", "2.0"]
        )
        assert code == 2
        assert "burden refused" in capsys.readouterr().err
    finally:
        server.shutdown()
        server.server_close()


def test_send_rejected_exits_three(live_server, tmp_path, capsys):
    core, addr = live_server
    now = core.clock.now()
    for t in (now - 3, now - 2, now - 1):
        core.sinbin.record_refusal("127.0.0.1", t)
    body = tmp_path / "msg.txt"
    body.write_bytes(b"hello")
    code = cli.main(
        ["send", "--server", addr, "--from", "a@x", "--to", "b@y", "--body-file", str(body)]
    )
    assert code == 3
    assert "rejected" in capsys.readouterr().err


def test_send_transport_failure_exits_four(tmp_path, capsys):
    probe = socket.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()
    probe.close()
    body = tmp_path / "msg.txt"
    body.write_bytes(b"hello")
    code = cli.main(
        ["send", "--server", f"{host}:{port}", "--from", "a@x", "--to", "b@y",
         "--body-file", str(body)]
    )
    assert code == 4
    assert "transport failure" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_send_invalid_budget_exits_64(budget, capsys):
    code = cli.main(
        ["send", "--from", "a@x", "--to", "b@y", "--budget", budget, "--dump-effective-config"]
    )
    assert code == 64
    assert "work_budget_seconds" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["serve", "--listen", "nope"],
    ["serve", "--listen", "host:99999", "--dump-effective-config"],
    ["send", "--server", "nope", "--from", "a@x", "--to", "b@y"],
    ["send", "--server", "host:notaport", "--from", "a@x", "--to", "b@y", "--dump-effective-config"],
])
def test_malformed_endpoint_is_a_usage_error(command, capsys):
    # refused before a socket is bound, a body read or a connection made
    assert cli.main(command) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"{command[0]}: ") and "endpoint" in err
    assert err.count("\n") == 1


def test_serve_prints_bracketed_ipv6_endpoint(tmp_path, monkeypatch, capsys):
    def interrupted(self, poll_interval=0.5):
        raise KeyboardInterrupt

    monkeypatch.setattr(PowSmtpServer, "serve_forever", interrupted)
    assert cli.main(["serve", "--listen", "[::1]:0", "--sink-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(rf"listening on \[::1\]:\d+, delivering to {re.escape(str(tmp_path))}/\n", out)


def test_serve_port_in_use_exits_four(tmp_path, capsys):
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        assert cli.main(["serve", "--listen", f"127.0.0.1:{port}", "--sink-dir", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"serve: cannot listen on 127.0.0.1:{port}: ")
    assert "Address already in use" in captured.err and captured.err.count("\n") == 1


def test_serve_unusable_sink_dir_exits_78(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["serve", "--listen", "127.0.0.1:0", "--sink-dir", str(blocker / "mail")]) == 78
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("serve: cannot use sink directory: ")
    assert captured.err.count("\n") == 1


def test_send_dump_effective_config_skips_network(capsys):
    code = cli.main(
        ["send", "--from", "a@x", "--to", "b@y", "--budget", "7.5", "--dump-effective-config"]
    )
    assert code == 0
    data = yaml.safe_load(capsys.readouterr().out)
    assert data["client"]["work_budget_seconds"] == 7.5


# -- import graph ------------------------------------------------------------------


def test_only_simulating_loads_numpy():
    # the server and the client never simulate, so they must not pay for numpy
    code = """
import sys
import spamfriction.cli, spamfriction.config, spamfriction.smtp, spamfriction.puzzle
import spamfriction.scoring, spamfriction.policy, spamfriction.clock, spamfriction.sim
from spamfriction import config, scoring, smtp
assert "numpy" not in sys.modules, "numpy loaded at import"
spamfriction.sim.run(spamfriction.sim.preset("paper-20"))
assert "numpy" in sys.modules
"""
    run_fresh(code)


def test_no_process_loads_openssl():
    # puzzles hash ~30-byte strings: CPython's own SHA-256 does that without
    # OpenSSL's libcrypto, which costs every server and client 3.6 MiB
    run_fresh("""
import sys
import spamfriction.cli, spamfriction.config, spamfriction.smtp
loaded = {"_hashlib", "ssl"} & set(sys.modules)
assert not loaded, loaded
""")


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports the package from src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
