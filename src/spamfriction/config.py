"""Application configuration: YAML in, validated dataclasses out.

Each section (server, policy, scorer, legacy, client) is one dataclass field
of :class:`AppConfig`, and each key one field of that dataclass: parsing, the
unknown-key check and ``dump_effective`` (the merged configuration, defaults
included, back as YAML) all walk the fields.  Unknown keys are rejected
outright; silently ignoring a typo like ``resist_treshold`` would change mail
handling without anyone noticing.
"""
from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass
from typing import get_type_hints

import yaml

from .policy import PolicyConfig
from .scoring import ScorerConfig
from .smtp import ClientConfig, LegacyPolicy, ServerConfig


class ConfigError(Exception):
    """Bad configuration file: unknown key, wrong type, invalid value."""


@dataclass
class AppConfig:
    server: ServerConfig = field(default_factory=ServerConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    legacy: LegacyPolicy = field(default_factory=LegacyPolicy)
    client: ClientConfig = field(default_factory=ClientConfig)

    @property
    def store_capacity(self) -> int:
        """Read-only alias of ``server.store_capacity``, for older readers."""
        return self.server.store_capacity


def parse_endpoint(text: str) -> tuple[str, int]:
    """Split ``host:port``; IPv6 literals use ``[::1]:port``."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must look like host:port, got {text!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"bad port in endpoint {text!r}") from None
    if not 0 <= port_num <= 65535:
        raise ValueError(f"port out of range in endpoint {text!r}")
    return host, port_num


def format_endpoint(endpoint: tuple[str, int]) -> str:
    host, port = endpoint
    if ":" in host:
        host = f"[{host}]"
    return f"{host}:{port}"


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        names = ", ".join(sorted(str(k) for k in unknown))
        raise ConfigError(f"unknown key(s) in {where}: {names}")


def _exact(*kinds):
    """Decoder of a YAML scalar that must already be one of ``kinds``, as the
    first of them: ``'no'`` is not a bool, ``null`` is not a string, ``20.9``
    is not an int, and a bool is not a number."""
    kind = kinds[0]

    def decode(value, where: str):
        if not isinstance(value, kinds) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(f"{where} must be a YAML {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
        try:
            return kind(value)
        except OverflowError:
            raise ConfigError(f"{where} is out of range") from None
    return decode


_INT = _exact(int)
_FLOAT = _exact(float, int)
_STR = _exact(str)


def _optional(codec):
    decode, encode = codec
    return (
        lambda value, where: None if value is None else decode(value, where),
        lambda value: None if value is None else encode(value),
    )


def _require_list(value, where: str, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of {what}")
    return value


def _decode_buckets(value, where: str) -> list[tuple[float, int]]:
    pairs = []
    for entry in _require_list(value, where, "[bound, difficulty] pairs"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ConfigError(f"{where} entries must be [bound, difficulty] pairs")
        pairs.append((_FLOAT(entry[0], where), _INT(entry[1], where)))
    return pairs


def _decode_weights(value, where: str) -> dict[str, float]:
    return {str(k): _FLOAT(v, f"{where}.{k}") for k, v in _require_mapping(value, where).items()}


def _same(value):
    return value


_ENDPOINT = (lambda value, where: parse_endpoint(str(value)), format_endpoint)

# per field type: (decode(YAML value, where) -> field value, encode(field value) -> YAML value)
_CODECS = {
    int: (_INT, _same),
    float: (_FLOAT, _same),
    str: (_STR, _same),
    bool: (_exact(bool), _same),
    float | None: _optional((_FLOAT, _same)),
    tuple[str, int]: _ENDPOINT,
    tuple[str, int] | None: _optional(_ENDPOINT),
    tuple[int, ...]: (lambda value, where: tuple(_INT(v, where) for v in _require_list(value, where, "integers")), list),
    frozenset[str]: (lambda value, where: frozenset(_STR(v, where) for v in _require_list(value, where, "patterns")), sorted),
    dict[str, float]: (_decode_weights, lambda weights: dict(sorted(weights.items()))),
    list[tuple[float, int]]: (_decode_buckets, lambda buckets: [list(b) for b in buckets]),
}


def _decode(hint, value, where: str):
    if not is_dataclass(hint):
        return _CODECS[hint][0](value, where)
    data = _require_mapping(value, where)
    hints = get_type_hints(hint)
    _check_keys(data, hints, where)
    return hint(**{name: _decode(kind, data[name], f"{where}.{name}") for name, kind in hints.items() if name in data})


def _encode(hint, value):
    if not is_dataclass(hint):
        return _CODECS[hint][1](value)
    return {name: _encode(kind, getattr(value, name)) for name, kind in get_type_hints(hint).items()}


_SECTIONS = get_type_hints(AppConfig)


def build_app_config(data: dict) -> AppConfig:
    """Assemble an AppConfig from a parsed YAML mapping."""
    data = _require_mapping(data, "configuration")
    _check_keys(data, _SECTIONS, "configuration")
    try:
        return AppConfig(**{name: _decode(hint, data.get(name), name) for name, hint in _SECTIONS.items()})
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | None) -> AppConfig:
    """Load YAML from ``path``; None means all defaults."""
    if path is None:
        return AppConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        # PyYAML raises a bare ValueError for an int of more than 4,300 digits
        raise ConfigError(f"bad YAML in {path}: {exc}") from exc
    return build_app_config(data if data is not None else {})


def effective_dict(app: AppConfig) -> dict:
    """The full merged configuration, defaults included."""
    return _encode(AppConfig, app)


def dump_effective(app: AppConfig) -> str:
    return yaml.safe_dump(effective_dict(app), default_flow_style=False, sort_keys=True)
