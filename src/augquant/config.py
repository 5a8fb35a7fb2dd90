"""Flat key-value config format and CSV serialization helpers.

Configs are plain text, one ``dotted.key = value`` per line, ``#`` comments.
Vectors and matrices are bracketed row-major decimal lists.  CSV output uses a
comma separator, ``.`` decimals, 17 significant digits (lossless for binary64
values), a mandatory header row, and ``#``-prefixed footer summary lines.
"""

import hashlib
import math
import os
import tempfile

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


def _finite(x):
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x!r}")
    return x


def _parse_value(raw):
    """A bool, int, float, list of floats or string; a non-finite number is a ValueError."""
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_finite(float(v)) for v in inner.split(",")]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = float(raw)
    except ValueError:
        return raw
    return _finite(value)


def parse_config_text(text):
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        try:
            out[key] = _parse_value(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {exc}") from exc
    return out


def read_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_text(cfg):
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, (list, tuple, np.ndarray)):
            lines.append(f"{key} = {fmt_list(value)}")
        elif isinstance(value, bool):
            lines.append(f"{key} = {'true' if value else 'false'}")
        elif isinstance(value, float):
            lines.append(f"{key} = {fmt(value)}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg):
    return hashlib.sha256(config_text(cfg).encode("utf-8")).hexdigest()


def atomic_write(path, text):
    """Write text to path via a temp file and rename, so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Builders: config dict -> domain objects
# ---------------------------------------------------------------------------

# Typed readers: ``cfg[key]``, or ``default`` when one is given and the key is
# absent; a value of the wrong type is a ConfigError naming the key.

def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _integer(cfg, key, default=None):
    """An int; an integral float such as 2.0 is accepted."""
    value = cfg[key] if default is None else cfg.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _real(cfg, key, default=None):
    """A finite float."""
    value = cfg[key] if default is None else cfg.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _vector(cfg, key, default=None):
    """A 1-d float array of finite entries; a lone number is a one-entry vector."""
    value = cfg[key] if default is None else cfg.get(key, default)
    entries = value if isinstance(value, list) else [value]
    if not all(map(_is_number, entries)):
        raise ConfigError(f"{key} must be a number or a bracketed list of numbers, "
                          f"got {value!r}")
    return np.asarray(entries, dtype=float)


def _need(cfg, key, missing):
    if key not in cfg:
        missing.append(key)
        return None
    return cfg[key]


def source_from_config(cfg):
    missing = []
    kind = _need(cfg, "source.kind", missing)
    if missing:
        raise ConfigError(f"missing config fields: {missing}")
    missing = [key for key in ("source.mean", "source.cov") if key not in cfg]
    if missing:
        raise ConfigError(f"missing config fields: {missing}")
    mean = _vector(cfg, "source.mean")
    d = mean.shape[0]
    cov = _vector(cfg, "source.cov")
    if d < 1 or cov.size != d * d:
        raise ConfigError(f"source.cov must have {d * d} entries (row-major {d}x{d})")
    if kind == "gaussian":
        return core.gaussian_source(mean, cov.reshape(d, d))
    if kind == "regression":
        c = _real(cfg, "source.noise_scale", 0.0)
        return core.regression_source(mean, cov.reshape(d, d), c)
    raise ConfigError(f"unknown source.kind {kind!r}")


def family_from_config(cfg, source=None):
    kind = cfg.get("family.kind")
    if kind is None:
        raise ConfigError("missing config fields: ['family.kind']")
    dim = _integer(cfg, "family.dim", 0)
    if kind == "identity":
        if dim < 1:
            raise ConfigError("identity family needs family.dim")
        fam = core.identity_family(dim)
    elif kind == "random_crop":
        fam = core.random_crop_family(dim)
    elif kind == "cyclic_rotation":
        fam = core.cyclic_rotation_family(dim)
    elif kind == "finite_uniform":
        members = []
        i = 0
        while f"family.member{i}.matrix" in cfg:
            flat = _vector(cfg, f"family.member{i}.matrix")
            d = int(round(np.sqrt(flat.size)))
            if d * d != flat.size:
                raise ConfigError(f"family.member{i}.matrix is not square")
            offset = f"family.member{i}.offset"
            members.append(core.affine(flat.reshape(d, d),
                                       _vector(cfg, offset) if offset in cfg else None))
            i += 1
        if not members:
            raise ConfigError("finite_uniform family needs family.member0.matrix, ...")
        weights = _vector(cfg, "family.weights") if "family.weights" in cfg else None
        fam = core.finite_uniform_family(members, weights)
    else:
        raise ConfigError(f"unknown family.kind {kind!r}")
    if cfg.get("family.paired", False):
        fam = fam.paired(fam.dim)
    return fam


def statistic_from_config(cfg, source=None):
    kind = cfg.get("statistic.kind")
    if kind is None:
        raise ConfigError("missing config fields: ['statistic.kind']")
    if kind == "average":
        return stats.average_statistic(_integer(cfg, "statistic.d", 1))
    if kind == "expnegchisq":
        return stats.exp_neg_chisq_statistic()
    if kind == "expnegchisq2d":
        return stats.exp_neg_chisq_2d_statistic()
    if kind == "smoothmax":
        return stats.smooth_max_statistic(_integer(cfg, "statistic.d_n", 1),
                                          _real(cfg, "statistic.t", 1.0))
    if kind == "hardmax":
        return stats.hard_max_statistic(_integer(cfg, "statistic.d_n", 1))
    if kind in ("ridge", "ridgerisk"):
        if source is None or source.kind != "regression":
            raise ConfigError("ridge statistics need a regression source")
        d, b, lam = source.d_cov, source.d_resp, _real(cfg, "statistic.lambda", 0.0)
        if kind == "ridge":
            return stats.ridge_statistic(d, b, lam)
        return stats.ridge_risk_statistic(d, b, lam, stats.risk_moments_from_source(source))
    raise ConfigError(f"unknown statistic.kind {kind!r}")


def experiment_from_config(cfg, seed_override=None):
    missing = [k for k in ("protocol", "n", "k", "replicates", "seed") if k not in cfg]
    if missing:
        raise ConfigError(f"missing config fields: {missing}")
    source = source_from_config(cfg)
    family = family_from_config(cfg)
    statistic = statistic_from_config(cfg, source)
    seed = _integer(cfg, "seed") if seed_override is None else int(seed_override)
    return ExperimentConfig(
        source=source, family=family, protocol=str(cfg["protocol"]),
        statistic=statistic, n=_integer(cfg, "n"), k=_integer(cfg, "k"),
        replicates=_integer(cfg, "replicates"), seed=seed,
        alpha=_real(cfg, "alpha", 0.05), delta=_real(cfg, "delta", 0.0))


# ---------------------------------------------------------------------------
# Experiment/result round trip
# ---------------------------------------------------------------------------

def experiment_to_dict(config):
    out = {"protocol": config.protocol, "n": config.n, "k": config.k,
           "replicates": config.replicates, "seed": config.seed,
           "alpha": config.alpha, "delta": config.delta}
    src = config.source
    out["source.kind"] = src.kind
    out["source.mean"] = list(src.mean)
    out["source.cov"] = list(src.cov.reshape(-1))
    if src.kind == "regression":
        out["source.noise_scale"] = src.noise_scale
    fam = config.family
    base_kind = fam.kind.replace("_paired", "")
    paired = fam.kind.endswith("_paired")
    dim = fam.dim // 2 if paired else fam.dim  # a paired family repeats each map twice
    if base_kind in ("identity", "random_crop", "cyclic_rotation"):
        out["family.kind"] = base_kind
        out["family.dim"] = dim
    else:
        out["family.kind"] = "finite_uniform"
        out["family.weights"] = list(fam.weights)
        for i in range(len(fam.members)):
            out[f"family.member{i}.matrix"] = list(fam.matrices[i, :dim, :dim].reshape(-1))
            out[f"family.member{i}.offset"] = list(fam.offsets[i, :dim])
    if paired:
        out["family.paired"] = True
    kind = config.statistic
    out["statistic.kind"] = kind.name
    if kind.name == "average":
        out["statistic.d"] = kind.d
    if kind.name in ("smoothmax", "hardmax"):
        out["statistic.d_n"] = kind.d_n
    if kind.name == "smoothmax":
        out["statistic.t"] = kind.t
    if kind.name in ("ridge", "ridgerisk"):
        out["statistic.lambda"] = kind.lam
    return out


def result_csv_text(result):
    """Samples as CSV rows plus a '#'-prefixed summary and config-echo footer.

    The wall time is intentionally not serialized: output files must be
    byte-identical across reruns at the same seed.
    """
    q = result.samples.shape[1]
    lines = [",".join(f"sample_{j}" for j in range(q))]
    for row in result.samples:
        lines.append(",".join(fmt(v) for v in row))
    lines.append("# mean = " + fmt_list(result.mean))
    lines.append("# covariance = " + fmt_list(result.covariance.reshape(-1)))
    lines.append("# var_norm = " + fmt(result.var_norm))
    lines.append("# std_of_first_coord = " + fmt(result.std_of_first_coord))
    lines.append("# se_of_variance = " + fmt(result.se_of_variance))
    lines.append("# se_of_first_coord_var = " + fmt(result.se_of_first_coord_var))
    lines.append("# empirical_ci_width = " + fmt(result.empirical_ci_width))
    for key, value in sorted(experiment_to_dict(result.config_echo).items()):
        if isinstance(value, (list, tuple)):
            lines.append(f"# config.{key} = {fmt_list(value)}")
        else:
            lines.append(f"# config.{key} = {value}")
    return "\n".join(lines) + "\n"


def result_from_csv_text(text):
    from .montecarlo import SimulationResult

    rows = []
    footer = {}
    header = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, raw = body.split("=", 1)
                footer[key.strip()] = _parse_value(raw)
            continue
        if header is None:
            header = line
            continue
        rows.append([float(v) for v in line.split(",")])
    if header is None:
        raise ConfigError("result file has no header row")
    samples = np.asarray(rows, dtype=float)
    q = samples.shape[1]
    cfg = {key[len("config."):]: val for key, val in footer.items() if key.startswith("config.")}
    config = experiment_from_config(cfg)
    return SimulationResult(
        samples=samples,
        mean=np.asarray(footer["mean"], dtype=float),
        covariance=np.asarray(footer["covariance"], dtype=float).reshape(q, q),
        var_norm=float(footer["var_norm"]),
        std_of_first_coord=float(footer["std_of_first_coord"]),
        se_of_variance=float(footer["se_of_variance"]),
        se_of_first_coord_var=float(footer["se_of_first_coord_var"]),
        empirical_ci_width=float(footer["empirical_ci_width"]),
        config_echo=config)


def surrogate_spec_text(spec):
    """Serialize a surrogate law in the flat config format (row-major matrices)."""
    cfg = {
        "surrogate.n": spec.n, "surrogate.k": spec.k, "surrogate.d": spec.d,
        "surrogate.delta": spec.delta, "surrogate.mode": spec.mode,
        "surrogate.mean_block": list(spec.mean_block),
        "surrogate.diag_block": list(spec.diag_block.reshape(-1)),
        "surrogate.offdiag_block": list(spec.offdiag_block.reshape(-1)),
    }
    return config_text(cfg)


def surrogate_spec_from_text(text):
    from .surrogate import SurrogateSpec

    cfg = parse_config_text(text)
    d = int(cfg["surrogate.d"])
    return SurrogateSpec(
        n=int(cfg["surrogate.n"]), k=int(cfg["surrogate.k"]), d=d,
        delta=float(cfg["surrogate.delta"]),
        mean_block=np.asarray(cfg["surrogate.mean_block"], dtype=float),
        diag_block=np.asarray(cfg["surrogate.diag_block"], dtype=float).reshape(d, d),
        offdiag_block=np.asarray(cfg["surrogate.offdiag_block"], dtype=float).reshape(d, d),
        mode=str(cfg["surrogate.mode"]))
