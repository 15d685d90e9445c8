"""Targeted-cost proof-of-work for SMTP, plus a sender-economics simulator.

The package gates mail acceptance on a hashcash-style partial-preimage
puzzle whose difficulty is set by how spammy the message looks: suspect
mail must burn CPU time to be accepted, ordinary mail passes almost free.
"""

from .clock import SystemClock, VirtualClock
from .policy import (
    CostModel,
    Decision,
    DecisionKind,
    PolicyConfig,
    SinBin,
    SinBinConfig,
    decide,
    expected_costs,
)
from .puzzle import (
    AttemptsExhausted,
    IssuedPuzzleStore,
    PowError,
    Puzzle,
    Receipt,
    VerifyOutcome,
    WireFormatError,
    calibrate,
    generate_challenge,
    parse_puzzle,
    parse_receipt,
    solve,
    verify_hash,
)
from .scoring import Scorer, ScorerConfig, SpamScore
from .sim import CohortSpec, SimConfig, SimReport, preset, run, sweep
from .smtp import (
    ClientConfig,
    LegacyPolicy,
    MailServerCore,
    Message,
    SendResult,
    SendStatus,
    ServerConfig,
    ServerSession,
    send_message,
)

__version__ = "0.1.0"

__all__ = [
    "AttemptsExhausted",
    "ClientConfig",
    "CohortSpec",
    "CostModel",
    "Decision",
    "DecisionKind",
    "IssuedPuzzleStore",
    "LegacyPolicy",
    "MailServerCore",
    "Message",
    "PolicyConfig",
    "PowError",
    "Puzzle",
    "Receipt",
    "Scorer",
    "ScorerConfig",
    "SendResult",
    "SendStatus",
    "ServerConfig",
    "ServerSession",
    "SimConfig",
    "SimReport",
    "SinBin",
    "SinBinConfig",
    "SpamScore",
    "SystemClock",
    "VerifyOutcome",
    "VirtualClock",
    "WireFormatError",
    "calibrate",
    "decide",
    "expected_costs",
    "generate_challenge",
    "parse_puzzle",
    "parse_receipt",
    "preset",
    "run",
    "solve",
    "send_message",
    "sweep",
    "verify_hash",
    "__version__",
]
