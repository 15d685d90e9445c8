"""Command line front end.

    spamfriction serve      run the receiving server
    spamfriction send       deliver one message, solving puzzles as needed
    spamfriction solve      solve a puzzle given on the command line
    spamfriction verify     check a receipt's hash against its difficulty
    spamfriction calibrate  benchmark this machine and suggest a difficulty
    spamfriction simulate   run the sender-economics simulator

Exit codes: 0 success/delivered, 2 burden refused, 3 rejected/invalid,
4 transport failure, 64 usage error, 78 configuration error.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

from . import puzzle as pow
from . import sim
from .config import AppConfig, ConfigError, dump_effective, load_config, parse_endpoint
from .scoring import Scorer
from .smtp import (
    MailboxSink,
    MailServerCore,
    Message,
    PowSmtpServer,
    SendStatus,
    send_message,
)

EXIT_OK = 0
EXIT_REFUSED_BURDEN = 2
EXIT_REJECTED = 3
EXIT_TRANSPORT = 4
EXIT_USAGE = 64
EXIT_CONFIG = 78


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract wants 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spamfriction", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_serve = sub.add_parser("serve", help="run the receiving SMTP server")
    p_serve.add_argument("--config", help="YAML configuration file")
    p_serve.add_argument("--listen", help="host:port to bind (overrides config)")
    p_serve.add_argument("--sink-dir", help="mailbox directory (overrides config)")
    p_serve.add_argument("--hostname", help="advertised hostname (overrides config)")
    p_serve.add_argument(
        "--dump-effective-config", action="store_true",
        help="print the merged configuration and exit",
    )

    p_send = sub.add_parser("send", help="send one message")
    p_send.add_argument("--config", help="YAML configuration file")
    p_send.add_argument("--server", help="host:port of the receiving server")
    p_send.add_argument("--from", dest="mail_from", required=True, help="envelope sender")
    p_send.add_argument("--to", dest="recipients", action="append", required=True,
                        help="envelope recipient (repeatable)")
    p_send.add_argument("--body-file", help="message body file (default: stdin)")
    p_send.add_argument("--budget", type=float, help="work budget in seconds")
    p_send.add_argument("--helo", help="EHLO name to present")
    p_send.add_argument(
        "--dump-effective-config", action="store_true",
        help="print the merged configuration and exit",
    )

    p_solve = sub.add_parser("solve", help="solve a puzzle")
    p_solve.add_argument("puzzle", help="puzzle wire form alg:difficulty:nonce")
    p_solve.add_argument("--attempt-cap", type=int, default=None,
                         help="give up after this many attempts")

    p_verify = sub.add_parser("verify", help="verify a receipt")
    p_verify.add_argument("receipt", help="receipt wire form alg:difficulty:nonce:solution")

    p_cal = sub.add_parser("calibrate", help="suggest a difficulty for a target cost")
    p_cal.add_argument("--target", type=float, default=3600.0,
                       help="target solving cost in seconds (default 3600)")
    p_cal.add_argument("--bench-duration", type=float, default=0.25,
                       help="benchmark length in seconds (default 0.25)")

    p_sim = sub.add_parser("simulate", help="run the economics simulator")
    p_sim.add_argument("--preset", choices=sim.PRESET_NAMES,
                       help="named scenario (default paper-999 unless --cohort given)")
    # each scenario flag's dest is the SimConfig field it overrides
    p_sim.add_argument("--fp", type=float, dest="false_positive_rate", metavar="FP", help="filter false-positive rate")
    p_sim.add_argument("--fn", type=float, dest="false_negative_rate", metavar="FN", help="filter false-negative rate")
    p_sim.add_argument("--burden", type=float, dest="burden_seconds", metavar="BURDEN",
                       help="cost of a resisted message in seconds")
    p_sim.add_argument("--days", type=int, help="days to simulate")
    p_sim.add_argument("--seed", type=int, help="random seed")
    p_sim.add_argument("--day-seconds", type=float, help="per-machine daily budget")
    p_sim.add_argument(
        "--cohort", action="append", metavar="NAME:KIND:MACHINES[:QUOTA[:SPEED]]",
        help="add a cohort; omit QUOTA for machines that send flat out",
    )
    p_sim.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    p_sim.add_argument("--sweep-accuracies", help="comma list of accuracies, e.g. 0.95,0.999")
    p_sim.add_argument("--sweep-burdens", help="comma list of burdens in seconds")
    return parser


# -- serve ---------------------------------------------------------------------


def _apply_serve_overrides(app: AppConfig, args) -> AppConfig:
    overrides = {
        "listen": parse_endpoint(args.listen) if args.listen else None,
        "sink_dir": args.sink_dir,
        "hostname": args.hostname,
    }
    app.server = replace(app.server, **{k: v for k, v in overrides.items() if v})
    return app


def _cmd_serve(args) -> int:
    app = load_config(args.config)
    try:
        app = _apply_serve_overrides(app, args)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.dump_effective_config:
        sys.stdout.write(dump_effective(app))
        return EXIT_OK
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(name)s %(message)s"
    )
    core = MailServerCore(
        config=app.server,
        policy_config=app.policy,
        scorer=Scorer(app.scorer),
        sink=MailboxSink(app.server.sink_dir),
        legacy=app.legacy,
    )
    server = PowSmtpServer(app.server.listen, core)
    host, port = server.server_address[:2]
    print(f"listening on {host}:{port}, delivering to {app.server.sink_dir}/", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return EXIT_OK


# -- send ----------------------------------------------------------------------


def _cmd_send(args) -> int:
    app = load_config(args.config)
    client_cfg = app.client
    try:
        if args.budget is not None:
            client_cfg = replace(client_cfg, work_budget_seconds=args.budget)
        if args.helo:
            client_cfg = replace(client_cfg, helo_name=args.helo)
        target = parse_endpoint(args.server) if args.server else app.server.listen
    except ValueError as exc:
        print(f"send: {exc}", file=sys.stderr)
        return EXIT_USAGE
    app.client = client_cfg
    if args.dump_effective_config:
        sys.stdout.write(dump_effective(app))
        return EXIT_OK
    if args.body_file:
        with open(args.body_file, "rb") as fh:
            body = fh.read()
    else:
        body = sys.stdin.buffer.read()
    message = Message(mail_from=args.mail_from, recipients=list(args.recipients), body=body)
    try:
        result = send_message(target, message, client_cfg)
    except OSError as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    if result.status is SendStatus.DELIVERED:
        print(f"delivered id={result.message_id}")
        return EXIT_OK
    if result.status is SendStatus.REFUSED_BURDEN:
        print(f"burden refused: {result.detail}", file=sys.stderr)
        return EXIT_REFUSED_BURDEN
    print(f"rejected ({result.code}): {result.detail}", file=sys.stderr)
    return EXIT_REJECTED


# -- solve / verify / calibrate --------------------------------------------------


def _cmd_solve(args) -> int:
    try:
        challenge = pow.parse_puzzle(args.puzzle)
    except pow.WireFormatError as exc:
        print(f"bad puzzle: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        receipt = pow.solve(challenge, attempt_cap=args.attempt_cap)
    except pow.UnsupportedAlgorithmError as exc:
        print(f"cannot solve: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except pow.AttemptsExhausted as exc:
        print(f"gave up: {exc}", file=sys.stderr)
        return EXIT_REFUSED_BURDEN
    except ValueError as exc:
        # a negative --attempt-cap
        print(f"bad attempt cap: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(receipt.wire)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        receipt = pow.parse_receipt(args.receipt)
    except pow.WireFormatError as exc:
        print(f"bad receipt: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ok = pow.verify_hash(receipt.puzzle, receipt.solution)
    except pow.UnsupportedAlgorithmError as exc:
        print(f"cannot verify: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    if ok:
        print(f"ok algorithm={receipt.puzzle.algorithm} difficulty={receipt.puzzle.difficulty}")
        return EXIT_OK
    print("invalid: solution does not meet the difficulty", file=sys.stderr)
    return EXIT_REJECTED


def _cmd_calibrate(args) -> int:
    try:
        result = pow.calibrate(args.target, bench_duration=args.bench_duration)
    except (pow.CalibrationError, ValueError) as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    expected = pow.expected_seconds(result.difficulty, result.hash_rate)
    ttl = pow.default_ttl(result.difficulty, result.hash_rate)
    print(f"hash_rate={result.hash_rate:.0f}/s")
    print(f"difficulty={result.difficulty}")
    print(f"expected_cost={expected:.1f}s")
    print(f"suggested_ttl={ttl:.0f}s")
    return EXIT_OK


# -- simulate --------------------------------------------------------------------


def _parse_cohort(text: str) -> sim.CohortSpec:
    parts = text.split(":")
    if len(parts) < 3:
        raise ValueError(f"cohort must be NAME:KIND:MACHINES[:QUOTA[:SPEED]], got {text!r}")
    name, kind, machines = parts[0], parts[1], int(parts[2])
    quota = None
    speed = 1.0
    if len(parts) >= 4 and parts[3] not in ("", "-"):
        quota = int(parts[3])
    if len(parts) >= 5:
        speed = float(parts[4])
    if len(parts) > 5:
        raise ValueError(f"too many fields in cohort {text!r}")
    return sim.CohortSpec(name=name, kind=kind, machines=machines, quota=quota, speed_factor=speed)


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad {what} list: {text!r}") from None
    if not values:
        raise ValueError(f"empty {what} list")
    return values


_SIM_FLAGS = ("false_positive_rate", "false_negative_rate", "burden_seconds", "days", "seed", "day_seconds")


def _cmd_simulate(args) -> int:
    try:
        # cohort mode is paper-999 with the given cohorts and seed 0
        base = sim.preset("paper-999" if args.cohort else args.preset or "paper-999")
        overrides = {"cohorts": tuple(_parse_cohort(c) for c in args.cohort), "seed": 0} if args.cohort else {}
        overrides.update((name, getattr(args, name)) for name in _SIM_FLAGS if getattr(args, name) is not None)
        base = replace(base, **overrides)
        if bool(args.sweep_accuracies) != bool(args.sweep_burdens):
            raise ValueError("--sweep-accuracies and --sweep-burdens go together")
        if args.sweep_accuracies:
            accuracies = _parse_float_list(args.sweep_accuracies, "accuracy")
            burdens = _parse_float_list(args.sweep_burdens, "burden")
            rows = sim.sweep(base, accuracies, burdens)
            if args.csv:
                sys.stdout.write(sim.sweep_csv(rows))
            else:
                print(f"{'fp':>8}{'fn':>8}{'burden':>10}{'ham avg':>12}{'spam avg':>12}{'sim ratio':>12}{'analytic':>12}")
                for row in rows:
                    analytic = "inf" if row.analytic_ratio == float("inf") else f"{row.analytic_ratio:.1f}"
                    print(
                        f"{row.false_positive_rate:>8.4f}{row.false_negative_rate:>8.4f}"
                        f"{row.burden_seconds:>10.0f}{row.ham_avg_cost:>12.3f}"
                        f"{row.spam_avg_cost:>12.3f}{row.simulated_ratio:>12.3f}{analytic:>12}"
                    )
            return EXIT_OK
        report = sim.run(base)
        sys.stdout.write(report.csv() if args.csv else report.table() + "\n")
        return EXIT_OK
    except ValueError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_USAGE


_COMMANDS = {
    "serve": _cmd_serve,
    "send": _cmd_send,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "calibrate": _cmd_calibrate,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
