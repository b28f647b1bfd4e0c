"""Line-oriented space-definition files.

The format is deliberately dumb: block headers in square brackets,
``key = value`` lines, ``#`` comments, numbers only.  Example::

    # the round sphere with a deliberately broken metric
    space = sphere2

    [metric]
    gram = [1 0; 0 2]

    [connection]
    alpha = canonical_first

Values are vectors ``(a, b, c)``, matrices ``[r11 r12; r21 r22]`` (rows
separated by semicolons), lists thereof separated by whitespace, index
quadruples ``(k, i, j, value)`` with 1-based indices, or bare words.
Structure constants given as quadruples are completed antisymmetrically;
conflicting duplicates are rejected there and in explicit alpha
coefficients.  An ``[algebra]`` with a ``matrix_basis`` but no
``structure_constants`` takes the constants the algebra reads off the basis
commutators; a basis whose commutators leave its span fails the
``commutator_consistency`` gate, located at the ``matrix_basis`` line.
Unknown keys or blocks, non-finite literals and an algebra dim above
``MAX_DIM`` (a named space's too) are schema errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .algebra import StructuredLieAlgebra
from .catalog import (
    SpaceBundle,
    diagnostic_battery,
    grassmann_like,
    group_as_space,
    so_n,
    sphere2,
    stiefel,
)
from .connection import AlphaMap, canonical_first, canonical_second, levi_civita_alpha
from .reductive import (
    MetricOnM,
    build_decomposition,
    normal_decomposition,
    symmetric_decomposition,
)
from .reporting import resolve_tolerances

__all__ = ["DefFileError", "SpaceDefinition", "parse_definition", "build_space"]

_KNOWN = {
    None: {"space"},
    "algebra": {"name", "dim", "structure_constants", "matrix_basis"},
    "decomposition": {"h_basis", "m_basis", "sigma", "biinvariant_gram", "h_generators"},
    "metric": {"gram"},
    "connection": {"alpha"},
}

_ALPHA_KEYWORDS = ("canonical_first", "canonical_second", "levi_civita")
# largest algebra dim a definition file may ask for, named spaces included: the
# structure constants take dim^3 doubles, 134 MB here, and are allocated before any
# check; so(23), dim 253, is the largest so(n) within it
MAX_DIM = 256


class DefFileError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


@dataclass
class SpaceDefinition:
    """Parsed but not yet numerically validated definition file."""

    space: str | None = None
    algebra: dict = field(default_factory=dict)
    decomposition: dict = field(default_factory=dict)
    metric: dict = field(default_factory=dict)
    connection: dict = field(default_factory=dict)
    lines: dict = field(default_factory=dict)  # (block, key) -> line number


def parse_definition(text: str) -> SpaceDefinition:
    defn = SpaceDefinition()
    block = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise DefFileError("unterminated block header", lineno, len(raw.rstrip()))
            name = line[1:-1].strip()
            if name not in _KNOWN or name is None:
                raise DefFileError(f"unknown block [{name}]", lineno, 1)
            block = name
            continue
        if "=" not in line:
            raise DefFileError("expected 'key = value'", lineno, 1)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN[block]:
            where = f"block [{block}]" if block else "top level"
            raise DefFileError(f"unknown key {key!r} in {where}", lineno,
                               raw.index(key) + 1)
        target = defn.__dict__[block] if block else None
        if block is None:
            if defn.space is not None:
                raise DefFileError("duplicate 'space' key", lineno, 1)
            defn.space = value
        else:
            if key in target:
                raise DefFileError(f"duplicate key {key!r}", lineno, 1)
            target[key] = value
        defn.lines[(block, key)] = lineno
    return defn


def _floats(text: str, lineno: int):
    out = []
    for token in re.split(r"[,\s]+", text.strip()):
        if not token:
            continue
        try:
            v = float(token)
        except ValueError:
            raise DefFileError(f"not a number: {token!r}", lineno) from None
        if not math.isfinite(v):
            raise DefFileError(f"non-finite literal {token!r}", lineno)
        out.append(v)
    return out


def _consume_groups(text: str, open_ch: str, close_ch: str, lineno: int):
    groups = []
    rest = text
    pattern = re.compile(re.escape(open_ch) + r"([^" + re.escape(open_ch)
                         + re.escape(close_ch) + r"]*)" + re.escape(close_ch))
    pos = 0
    leftover = []
    for match in pattern.finditer(text):
        leftover.append(text[pos:match.start()])
        groups.append(match.group(1))
        pos = match.end()
    leftover.append(text[pos:])
    if "".join(leftover).strip():
        raise DefFileError(
            f"malformed value near {''.join(leftover).strip()[:20]!r}", lineno)
    if not groups:
        raise DefFileError("expected at least one bracketed group", lineno)
    return groups


def _vectors(text: str, lineno: int) -> list[list[float]]:
    return [_floats(g, lineno) for g in _consume_groups(text, "(", ")", lineno)]


def _matrices(text: str, lineno: int) -> list[np.ndarray]:
    mats = []
    for g in _consume_groups(text, "[", "]", lineno):
        rows = [r for r in g.split(";")]
        data = [_floats(r, lineno) for r in rows]
        widths = {len(r) for r in data}
        if len(widths) != 1:
            raise DefFileError("matrix rows have unequal lengths", lineno)
        mats.append(np.array(data))
    return mats


def _matrix(text: str, lineno: int, size: int, key: str) -> np.ndarray:
    """The one ``size`` x ``size`` matrix of a key's value."""
    mats = _matrices(text, lineno)
    if len(mats) != 1 or mats[0].shape != (size, size):
        shapes = " ".join(f"{r}x{c}" for r, c in (m.shape for m in mats))
        raise DefFileError(f"{key} must be one {size}x{size} matrix, got {shapes}", lineno)
    return mats[0]


def _coordinate_vectors(text: str, lineno: int, dim: int, key: str) -> list[list[float]]:
    vecs = _vectors(text, lineno)
    if any(len(v) != dim for v in vecs):
        raise DefFileError(f"each {key} vector needs dim = {dim} coordinates", lineno)
    return vecs


def _quadruples(text: str, lineno: int):
    out = []
    for g in _consume_groups(text, "(", ")", lineno):
        vals = _floats(g, lineno)
        if len(vals) != 4:
            raise DefFileError("expected (k, i, j, value) quadruples", lineno)
        k, i, j = (int(v) for v in vals[:3])
        if not all(float(int(v)) == v for v in vals[:3]):
            raise DefFileError("indices must be integers", lineno)
        out.append((k, i, j, vals[3]))
    return out


# whitespace may separate tokens, never the digits of one number
_SPACE_RE = re.compile(r"(sphere2|so\s*\(\s*(\d+)\s*\)|stiefel\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)"
                       r"|grassmann\s*\(\s*(\d+)\s*,\s*(\d+)\s*\))")


def _named_space(name: str, lineno: int) -> SpaceBundle:
    """The catalog space of a name."""
    m = _SPACE_RE.fullmatch(name)
    if not m:
        raise DefFileError(
            f"unknown named space {name!r} "
            "(expected sphere2, so(n), stiefel(n,k) or grassmann(n,k))", lineno)
    n = int(m.group(2) or m.group(3) or m.group(5) or 3)    # the group is so(n), so(3) for sphere2
    if n * (n - 1) // 2 > MAX_DIM:
        raise DefFileError(f"named space {name!r} needs so({n}) of dim {n * (n - 1) // 2}, "
                           f"above the largest supported dim {MAX_DIM}", lineno)
    try:
        if m.group(1) == "sphere2":
            return sphere2()
        if m.group(2):
            return group_as_space(so_n(int(m.group(2))), name=f"so({m.group(2)})/{{e}}")
        if m.group(3):
            return stiefel(int(m.group(3)), int(m.group(4)))
        return grassmann_like(int(m.group(5)), int(m.group(6)))
    except ValueError as exc:
        raise DefFileError(f"invalid named space {name!r}: {exc}", lineno) from exc


def _quadruple_table(text: str, dim: int, lineno: int, prefix: str = "",
                     antisymmetric: bool = False) -> np.ndarray:
    """The (dim, dim, dim) table of the 1-based ``(k, i, j, value)`` quadruples of ``text``.

    An index out of 1..dim, named by ``prefix`` and its slot, and an entry
    given twice with two values are refused at ``lineno``.  With
    ``antisymmetric`` (structure constants) each entry sets its mirror
    (k, j, i) to -value too, so an entry that conflicts with a mirror is a
    duplicate as well, and an entry with equal bracket slots must vanish.
    """
    table = np.zeros((dim, dim, dim))
    seen = {}
    for k, i, j, v in _quadruples(text, lineno):
        for idx, label in ((k, "k"), (i, "i"), (j, "j")):
            if not 1 <= idx <= dim:
                raise DefFileError(f"{prefix}index {label}={idx} out of range 1..{dim}", lineno)
        entries = [((k, i, j), v)]
        if antisymmetric:
            if i == j and v != 0.0:
                raise DefFileError(
                    f"entry {(k, i, j)} with equal bracket slots must vanish", lineno)
            entries.append(((k, j, i), -v))
        for key, value in entries:
            if seen.setdefault(key, value) != value:
                raise DefFileError(f"conflicting duplicate entry for {key}", lineno)
            table[tuple(a - 1 for a in key)] = value
    return table


def _build_algebra(defn: SpaceDefinition, tols: dict) -> StructuredLieAlgebra:
    block = defn.algebra
    line = lambda key: defn.lines.get(("algebra", key), 0)
    if "dim" not in block:
        raise DefFileError("[algebra] needs a 'dim' key", line("name") or 1)
    dim_vals = _floats(block["dim"], line("dim"))
    if len(dim_vals) != 1 or dim_vals[0] != int(dim_vals[0]) or dim_vals[0] < 1:
        raise DefFileError("'dim' must be a positive integer", line("dim"))
    dim = int(dim_vals[0])
    if dim > MAX_DIM:
        raise DefFileError(f"'dim' = {dim} exceeds the largest supported dim {MAX_DIM}",
                           line("dim"))
    name = block.get("name", "user-algebra")

    basis = None
    if "matrix_basis" in block:
        mats = _matrices(block["matrix_basis"], line("matrix_basis"))
        if len(mats) != dim:
            raise DefFileError(
                f"matrix_basis has {len(mats)} matrices but dim = {dim}",
                line("matrix_basis"))
        if len({m.shape for m in mats}) != 1 or mats[0].shape[0] != mats[0].shape[1]:
            raise DefFileError("matrix_basis matrices must be square and of one size",
                               line("matrix_basis"))
        basis = np.array(mats)

    c = None
    if "structure_constants" in block:
        c = _quadruple_table(block["structure_constants"], dim, line("structure_constants"),
                             antisymmetric=True)
    elif basis is None:
        raise DefFileError("[algebra] needs structure_constants or matrix_basis",
                           line("dim"))
    try:
        return StructuredLieAlgebra(c, basis, name=name, tolerances=tols)
    except ValueError as exc:
        # constants read off the basis fail where the basis is written
        raise DefFileError(f"invalid algebra: {exc}",
                           line("dim" if c is not None else "matrix_basis")) from exc


def _build_decomposition(defn: SpaceDefinition, algebra: StructuredLieAlgebra, tols: dict):
    block = defn.decomposition
    line = lambda key: defn.lines.get(("decomposition", key), 0)
    n = algebra.dim
    vectors = lambda key: _coordinate_vectors(block[key], line(key), n, key)
    metric = None
    if not block:
        dec = build_decomposition(algebra, [], np.eye(algebra.dim), tolerances=tols)
        return dec, metric
    if "h_generators" in block and "m_basis" not in block:
        raise DefFileError("h_generators only combine with explicit bases",
                           line("h_generators"))
    if "sigma" in block:
        if "m_basis" in block or "biinvariant_gram" in block:
            raise DefFileError("sigma excludes m_basis/biinvariant_gram", line("sigma"))
        sigma = _matrix(block["sigma"], line("sigma"), n, "sigma")
        dec = symmetric_decomposition(algebra, sigma, tolerances=tols)
    elif "biinvariant_gram" in block:
        if "m_basis" in block:
            raise DefFileError("biinvariant_gram excludes m_basis", line("biinvariant_gram"))
        if "h_basis" not in block:
            raise DefFileError("biinvariant_gram needs h_basis", line("biinvariant_gram"))
        gram = _matrix(block["biinvariant_gram"], line("biinvariant_gram"), n,
                       "biinvariant_gram")
        dec, metric = normal_decomposition(algebra, gram, vectors("h_basis"), tolerances=tols)
    elif "m_basis" in block:
        h = vectors("h_basis") if "h_basis" in block else []
        gens = None
        if "h_generators" in block:
            if algebra.matrix_basis is None:
                raise DefFileError("h_generators need a matrix_basis", line("h_generators"))
            d = algebra.matrix_dim
            gens = _matrices(block["h_generators"], line("h_generators"))
            if any(g.shape != (d, d) for g in gens):
                raise DefFileError(f"h_generators must be {d}x{d} matrices",
                                   line("h_generators"))
        dec = build_decomposition(algebra, h, vectors("m_basis"), h_generators=gens,
                                  tolerances=tols)
    else:
        raise DefFileError("[decomposition] needs m_basis, sigma or biinvariant_gram",
                           min(defn.lines.get(("decomposition", k), 1) for k in block))
    return dec, metric


def _gated_alpha(build, force: bool, lineno):
    """``build(unchecked)`` through its gate: a failure raises at ``lineno``, or with
    ``force`` is built tainted."""
    try:
        return build(False)
    except ValueError as exc:
        if not force:
            raise DefFileError(
                f"invalid alpha: {exc}; --force builds it anyway (tainted)", lineno) from exc
    return build(True)


def build_space(defn: SpaceDefinition, force: bool = False, tolerances=None):
    """Turn a parsed definition into ``(bundle, alpha)``.

    ``alpha`` is the one alpha the check report covers: the one the
    connection block asks for, built through its gate, or ``canonical_first``
    when there is no connection block.  With ``force=True`` a requested alpha
    that fails its gate is constructed anyway and marked tainted; the
    implicit ``canonical_first`` always is, so its failure is reported, not
    raised.  Every gate reads ``resolve_tolerances(tolerances)``.
    """
    tols = resolve_tolerances(tolerances)
    if defn.space is not None and (defn.algebra or defn.decomposition):
        raise DefFileError("a named space excludes [algebra]/[decomposition] blocks",
                           defn.lines.get((None, "space")))
    if defn.space is not None:
        space = _named_space(defn.space, defn.lines.get((None, "space"), 1))
        dec, metric, name = space.dec, space.metric, space.name
    else:
        if not defn.algebra:
            raise DefFileError("definition needs either 'space = ...' or an [algebra] block")
        algebra = _build_algebra(defn, tols)
        dec, metric = _build_decomposition(defn, algebra, tols)
        name = algebra.name

    if defn.metric:
        lineno = defn.lines.get(("metric", "gram"), 0)
        gram = _matrix(defn.metric["gram"], lineno, dec.N, "gram on m")
        try:
            metric = MetricOnM(dec, gram)
        except ValueError as exc:
            raise DefFileError(f"invalid metric: {exc}", lineno) from exc

    # canonical_first unless the connection block asks for another alpha; built
    # implicitly, it is kept tainted when it fails its gate, so the report says so
    build = lambda unchecked: canonical_first(dec, unchecked, tols)
    lineno = None
    if defn.connection:
        lineno = defn.lines.get(("connection", "alpha"), 0)
        specifier = defn.connection["alpha"].strip()
        if specifier == "canonical_second":
            build = lambda unchecked: canonical_second(dec)
        elif specifier == "levi_civita":
            if metric is None:
                raise DefFileError("levi_civita needs a metric", lineno)
            build = lambda unchecked: levi_civita_alpha(dec, metric, unchecked, tols)
        elif specifier.startswith("("):
            coeffs = _quadruple_table(specifier, dec.N, lineno, "alpha ")
            build = lambda unchecked: AlphaMap(dec, coeffs, label="explicit",
                                               unchecked=unchecked, tolerances=tols)
        elif specifier != "canonical_first":
            raise DefFileError(
                f"alpha must be one of {_ALPHA_KEYWORDS} or a coefficient list", lineno)
    alpha = _gated_alpha(build, force or not defn.connection, lineno)
    return SpaceBundle(dec=dec, metric=metric, name=name), alpha


def check_space(bundle: SpaceBundle, alpha: AlphaMap, tolerances=None):
    """Battery reports of ``bundle`` and ``alpha`` plus the global pass flag
    (conjunction of mandatory checks)."""
    reports = diagnostic_battery(bundle, alpha, tolerances)
    passed = all(r.passed for r in reports if r.mandatory)
    return reports, passed
