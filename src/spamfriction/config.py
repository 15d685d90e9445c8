"""Application configuration: YAML in, validated dataclasses out.

Each section (server, policy, scorer, legacy, client) is one dataclass field
of :class:`AppConfig`, and each key one field of that dataclass: parsing, the
unknown-key check and ``dump_effective`` (the merged configuration, defaults
included, back as YAML) all walk the fields.  Unknown keys are rejected
outright; silently ignoring a typo like ``resist_treshold`` would change mail
handling without anyone noticing.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_type_hints

import yaml

from .policy import PolicyConfig
from .scoring import ScorerConfig
from .smtp import ClientConfig, LegacyPolicy, ServerConfig


class ConfigError(Exception):
    """Bad configuration file: unknown key, wrong type, invalid value."""


DEFAULT_LISTEN = ("127.0.0.1", 2525)
DEFAULT_SINK_DIR = "mailbox"
DEFAULT_STORE_CAPACITY = 10_000


@dataclass
class AppConfig:
    listen: tuple[str, int] = DEFAULT_LISTEN
    sink_dir: str = DEFAULT_SINK_DIR
    store_capacity: int = DEFAULT_STORE_CAPACITY
    server: ServerConfig = field(default_factory=ServerConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    legacy: LegacyPolicy = field(default_factory=LegacyPolicy)
    client: ClientConfig = field(default_factory=ClientConfig)


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
    str: (_exact(str), _same),
    bool: (_exact(bool), _same),
    float | None: _optional((_FLOAT, _same)),
    tuple[str, int]: _ENDPOINT,
    tuple[str, int] | None: _optional(_ENDPOINT),
    tuple[int, ...]: (lambda value, where: tuple(_INT(v, where) for v in _require_list(value, where, "integers")), list),
    frozenset[str]: (lambda value, where: frozenset(map(str, _require_list(value, where, "patterns"))), sorted),
    dict[str, float]: (_decode_weights, lambda weights: dict(sorted(weights.items()))),
    list[tuple[float, int]]: (_decode_buckets, lambda buckets: [list(b) for b in buckets]),
}


def _kwargs(cls, data: dict, where: str) -> dict:
    """Decoded values for the fields of ``cls`` that ``data`` sets."""
    hints = get_type_hints(cls)
    return {f.name: _decode(hints[f.name], data[f.name], f"{where}.{f.name}")
            for f in fields(cls) if f.name in data}


def _decode(hint, value, where: str):
    if not is_dataclass(hint):
        return _CODECS[hint][0](value, where)
    data = _require_mapping(value, where)
    _check_keys(data, [f.name for f in fields(hint)], where)
    return hint(**_kwargs(hint, data, where))


def _encode(hint, value):
    if not is_dataclass(hint):
        return _CODECS[hint][1](value)
    hints = get_type_hints(hint)
    return {f.name: _encode(hints[f.name], getattr(value, f.name)) for f in fields(hint)}


_APP_HINTS = get_type_hints(AppConfig)
# AppConfig's own settings, which the YAML carries in the ServerConfig section
_CARRIED = [name for name, hint in _APP_HINTS.items() if not is_dataclass(hint)]
_SECTIONS = {name: hint for name, hint in _APP_HINTS.items() if is_dataclass(hint)}
_SERVER = next(name for name, hint in _SECTIONS.items() if hint is ServerConfig)


def build_app_config(data: dict) -> AppConfig:
    """Assemble an AppConfig from a parsed YAML mapping."""
    data = _require_mapping(data, "configuration")
    _check_keys(data, _SECTIONS, "configuration")
    try:
        server = _require_mapping(data.get(_SERVER), _SERVER)
        _check_keys(server, _CARRIED + [f.name for f in fields(ServerConfig)], _SERVER)
        carried = _kwargs(AppConfig, {k: v for k, v in server.items() if k in _CARRIED}, _SERVER)
        if carried.get("store_capacity", DEFAULT_STORE_CAPACITY) < 1:
            raise ConfigError(f"{_SERVER}.store_capacity must be at least 1")
        data = {**data, _SERVER: {k: v for k, v in server.items() if k not in _CARRIED}}
        sections = {name: _decode(hint, data.get(name), name) for name, hint in _SECTIONS.items()}
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return AppConfig(**carried, **sections)


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
    tree = _encode(AppConfig, app)
    tree[_SERVER].update({name: tree.pop(name) for name in _CARRIED})
    return tree


def dump_effective(app: AppConfig) -> str:
    return yaml.safe_dump(effective_dict(app), default_flow_style=False, sort_keys=True)
