"""Flat key-value config format and CSV serialization helpers.

Configs are plain text, one ``dotted.key = value`` per line, ``#`` comments.
Vectors and matrices are bracketed row-major decimal lists.  ``KEYS`` is the
list of keys, each with its type and its default; a config naming any other
key, or one key twice, is refused, and ``read`` is how every value is taken
from a parsed config.  CSV output uses a comma separator, ``.`` decimals, 17
significant digits (lossless for binary64 values), a mandatory header row,
and ``#``-prefixed footer summary lines.
"""

import hashlib
import math
import re

import numpy as np

from . import core
from . import statistics as stats
from .errors import ConfigError
from .montecarlo import ExperimentConfig


def fmt(x):
    """Format a float with 17 significant digits (round-trips binary64)."""
    return format(float(x), ".17g")


def fmt_list(values):
    return "[" + ", ".join(fmt(v) for v in np.asarray(values, dtype=float).reshape(-1)) + "]"


def _text(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        return fmt_list(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return fmt(value) if isinstance(value, float) else str(value)


def config_text(cfg):
    return "\n".join(f"{key} = {_text(cfg[key])}" for key in sorted(cfg)) + "\n"


def config_hash(cfg):
    return hashlib.sha256(config_text(cfg).encode("utf-8")).hexdigest()


def atomic_write(path, text):
    """Write text to path as UTF-8.  A plain write is enough: the CLI writes only into a
    run's private stage directory and publishes it only when the run has succeeded."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# The key table and its typed reader
# ---------------------------------------------------------------------------

def _finite(x):
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x!r}")
    return x


def _parse_value(raw):
    """A bool, int, float, list of floats or string; a non-finite number is a ValueError."""
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        return [_finite(float(v)) for v in inner.split(",")] if inner else []
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for number in (int, float):
        try:
            value = number(raw)
        except ValueError:
            continue
        return _finite(value)
    return raw


# Each type returns the value builders use, or raises a ValueError completing "<key> must be"

def _integer(lo, hi, span):
    """The type of integers in [lo, hi); an integral float such as 2.0 is accepted."""
    def kind(value):
        if ((type(value) is int or isinstance(value, float) and value.is_integer())
                and lo <= value < hi):
            return int(value)
        raise ValueError(f"an integer in {span}")
    return kind


_int = _integer(-2**63, 2**63, "[-2**63, 2**63)")
_seed = _integer(0, 2**64, "[0, 2**64)")  # the stream-key range


def _float(value):
    if type(value) in (int, float) and math.isfinite(value):
        return float(value)
    raise ValueError("a finite number")


def _vector(value):
    """A 1-d float array; a lone number is a one-entry vector."""
    try:
        return np.asarray([_float(v) for v in (value if isinstance(value, list) else [value])])
    except ValueError:
        raise ValueError("a number or a bracketed list of numbers") from None


def _bool(value):
    if isinstance(value, bool):
        return value
    raise ValueError("true or false")


def _name(value):
    if isinstance(value, str):
        return value
    raise ValueError("a name")


REQUIRED = object()  # the default of a key that has none: reading it absent is an error

# key -> (type, default); a default of None reads as None (the key is optional)
KEYS = {
    "protocol": (_name, REQUIRED), "n": (_int, REQUIRED), "k": (_int, REQUIRED),
    "replicates": (_int, REQUIRED), "seed": (_seed, REQUIRED),
    "alpha": (_float, 0.05), "delta": (_float, 0.0),
    "source.kind": (_name, REQUIRED), "source.mean": (_vector, REQUIRED),
    "source.cov": (_vector, REQUIRED), "source.noise_scale": (_float, 0.0),
    "family.kind": (_name, REQUIRED), "family.dim": (_int, REQUIRED),
    "family.weights": (_vector, None), "family.paired": (_bool, False),
    "family.member<N>.matrix": (_vector, REQUIRED),
    "family.member<N>.offset": (_vector, None),
    "statistic.kind": (_name, REQUIRED), "statistic.d": (_int, 1),
    "statistic.t": (_float, 1.0), "statistic.lambda": (_float, 0.0),
    "compare.protocols": (_name, REQUIRED),
    "bounds.num_outer": (_int, 64), "bounds.num_grid": (_int, 17),
    "bounds.include_repeated": (_bool, False),
    "predict.curve": (_name, REQUIRED), "predict.grid": (_vector, []),
    "predict.alpha": (_float, 0.05), "predict.rho": (_float, -0.5),
    "predict.n": (_int, 100), "predict.mu": (_float, 1.0), "predict.c": (_float, 1.0),
    "predict.lambda": (_float, 0.0),
}

_MEMBER = re.compile(r"family\.member(0|[1-9][0-9]*)\.(matrix|offset)")


def _table_key(key):
    """The KEYS entry of key: family.member<N>.* for every member index N."""
    match = _MEMBER.fullmatch(key)
    return f"family.member<N>.{match[2]}" if match else key


def read(cfg, *keys):
    """The typed value of each key, ``cfg[key]`` or else its ``KEYS`` default; one key
    gives a value and several a tuple.  Absent required keys are one ConfigError
    naming them all, and a value of the wrong type a ConfigError naming its key.
    """
    missing = [key for key in keys if key not in cfg and KEYS[_table_key(key)][1] is REQUIRED]
    if missing:
        raise ConfigError(f"missing config fields: {missing}")
    values = []
    for key in keys:
        kind, default = KEYS[_table_key(key)]
        value = cfg[key] if key in cfg else default
        try:
            values.append(None if value is None else kind(value))
        except ValueError as exc:
            raise ConfigError(f"{key} must be {exc}, got {value!r}") from None
    return values[0] if len(keys) == 1 else tuple(values)


def parse_config_text(text):
    """The config's values as written, by key; an unknown or repeated key is refused."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if _table_key(key) not in KEYS or "<" in key:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = _parse_value(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {exc}") from exc
    return out


def read_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# Builders: config dict -> domain objects
# ---------------------------------------------------------------------------

def source_from_config(cfg):
    kind, mean, cov = read(cfg, "source.kind", "source.mean", "source.cov")
    d = mean.shape[0]
    if d < 1 or cov.size != d * d:
        raise ConfigError(f"source.cov must have {d * d} entries (row-major {d}x{d})")
    if kind == "gaussian":
        return core.gaussian_source(mean, cov.reshape(d, d))
    if kind == "regression":
        return core.regression_source(mean, cov.reshape(d, d), read(cfg, "source.noise_scale"))
    raise ConfigError(f"unknown source.kind {kind!r}")


def _members(cfg):
    """The finite_uniform stacks (matrices, offsets) of family.member0 to member<M-1>,
    each .offset with its .matrix."""
    found = [match for match in map(_MEMBER.fullmatch, cfg) if match]
    count = sum(match[2] == "matrix" for match in found)
    for match in found:  # with M matrices, every index below M covers both checks
        if int(match[1]) >= count:
            raise ConfigError(f"{match[0]} is out of place: family members are numbered from 0 "
                              f"without a gap, each .offset with its .matrix ({count} matrices)")
    if not count:
        raise ConfigError("finite_uniform family needs family.member0.matrix, ...")
    matrices, offsets = [], []
    for i in range(count):
        flat, offset = read(cfg, f"family.member{i}.matrix", f"family.member{i}.offset")
        d = int(round(np.sqrt(flat.size)))
        if d * d != flat.size:
            raise ConfigError(f"family.member{i}.matrix is not square")
        if matrices and d != len(matrices[0]):
            raise ConfigError(f"family.member{i}.matrix is {d}x{d}, but family.member0.matrix "
                              f"is {len(matrices[0])}x{len(matrices[0])}")
        if offset is not None and offset.size != d:
            raise ConfigError(f"family.member{i}.offset has {offset.size} entries, "
                              f"one per row of its {d}x{d} matrix expected")
        matrices.append(flat.reshape(d, d))
        offsets.append(np.zeros(d) if offset is None else offset)
    return matrices, offsets


# family.kind -> its constructor from family.dim, for every kind but finite_uniform
_DIM_FAMILIES = {"identity": core.identity_family, "random_crop": core.random_crop_family,
                 "cyclic_rotation": core.cyclic_rotation_family}


def family_from_config(cfg):
    kind, paired = read(cfg, "family.kind", "family.paired")
    if kind == "finite_uniform":
        fam = core.TransformationFamily(*_members(cfg), read(cfg, "family.weights"))
    elif kind in _DIM_FAMILIES:
        fam = _DIM_FAMILIES[kind](read(cfg, "family.dim"))
    else:
        raise ConfigError(f"unknown family.kind {kind!r}")
    return fam.paired() if paired else fam


# statistic.kind -> {config key: StatisticKind field} of the parameters it takes; a kind
# not listed takes statistic.d, the number of coordinates of the scaled grand mean
_STATISTIC_FIELDS = {"smoothmax": {"statistic.d": "d", "statistic.t": "t"},
                     "ridge": {"statistic.lambda": "lam"},
                     "ridgerisk": {"statistic.lambda": "lam"}}


def statistic_from_config(cfg, source):
    kind = read(cfg, "statistic.kind")
    fields = {field: read(cfg, key) for key, field in
              _STATISTIC_FIELDS.get(kind, {"statistic.d": "d"}).items()}
    if kind in ("ridge", "ridgerisk"):
        if source.kind != "regression":
            raise ConfigError("ridge statistics need a regression source")
        fields.update(d=source.mean.size, b=source.mean.size, risk_moments=(
            stats.risk_moments_from_source(source) if kind == "ridgerisk" else None))
    return stats.StatisticKind(name=kind, **fields)


def experiment_from_config(cfg, seed_override=None):
    protocol, n, k, replicates, seed, alpha, delta = read(
        cfg, "protocol", "n", "k", "replicates", "seed", "alpha", "delta")
    source = source_from_config(cfg)
    return ExperimentConfig(
        source=source, family=family_from_config(cfg),
        statistic=statistic_from_config(cfg, source), protocol=protocol, n=n, k=k,
        replicates=replicates, seed=seed if seed_override is None else seed_override,
        alpha=alpha, delta=delta)


def csv_text(header, rows, footer_lines=()):
    """The header row, one line per row (floats as ``fmt``), then ``#``-prefixed footer lines."""
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows  # Python floats format faster
    lines = [",".join(header)]
    lines += [",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    lines += ["# " + line for line in footer_lines]
    return "\n".join(lines) + "\n"


def result_csv_text(result, cfg):
    """Samples as CSV rows, then '#'-prefixed summary lines and ``cfg``, the parsed config
    that ran (with its resolved seed), one ``config.`` line per key.  Nothing is timed, so
    reruns match byte for byte."""
    footer = ["mean = " + fmt_list(result.mean),
              "covariance = " + fmt_list(result.covariance.reshape(-1))]
    footer += [f"{name} = {fmt(getattr(result, name))}" for name in (
        "var_norm", "std_of_first_coord", "se_of_variance", "se_of_first_coord_var",
        "empirical_ci_width")]
    footer += ["config." + line for line in config_text(cfg).splitlines()]
    return csv_text([f"sample_{j}" for j in range(result.samples.shape[1])], result.samples,
                    footer)
