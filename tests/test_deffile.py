"""Schema fuzz of definition files.

Generated texts mix blocks of the right and the wrong sizes: named spaces
with valid and invalid parameters, matrix bases that are ragged, non-square
or not closed under the commutator, coordinate vectors of the wrong length,
``sigma``, ``biinvariant_gram``, ``h_generators`` and ``gram`` of the wrong
size or given twice.  Building and checking any of them must end in
reports, in a ``DefFileError`` that names a line (exit 2), or in a
``DecompositionError`` (a failed decomposition gate, exit 1); never in
another exception.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from redhom.deffile import DefFileError, build_space, check_space, parse_definition
from redhom.reductive import DecompositionError

SO3_BASIS = [[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
             [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
             [[0, -1, 0], [1, 0, 0], [0, 0, 0]]]
AFFINE_BASIS = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
SO2_BASIS = [[[0, -1], [1, 0]]]

entries = st.sampled_from([-1, 0, 0, 1, 2])


def sizes(right):
    """The right size most of the time, one off otherwise."""
    return st.sampled_from([right] * 6 + [right + 1, max(right - 1, 0)])


def matrix_text(rows):
    return "[" + "; ".join(" ".join(str(v) for v in row) for row in rows) + "]"


@st.composite
def matrices(draw, size, count=1):
    """``count`` matrices of about ``size`` x ``size``, or a second one where one is due."""
    count = draw(st.sampled_from([count] * 6 + [count + 1]))
    out = []
    for _ in range(count):
        rows, cols = max(draw(sizes(size)), 1), draw(sizes(size))
        if draw(st.booleans()):            # a signed diagonal: often invertible and valid
            flips = [draw(st.sampled_from([1, 1, -1, 0])) for _ in range(rows)]
            cells = [[flips[i] * int(i == j) for j in range(cols)] for i in range(rows)]
        else:
            cells = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
        out.append(matrix_text(cells))
    return " ".join(out)


@st.composite
def vectors(draw, dim, count):
    out = []
    for _ in range(draw(sizes(count))):
        length = draw(sizes(dim))
        if draw(st.booleans()):            # a unit vector
            k = draw(st.integers(0, max(dim - 1, 0)))
            cells = [int(i == k) for i in range(length)]
        else:
            cells = [draw(entries) for _ in range(length)]
        out.append("(" + ",".join(map(str, cells)) + ")")
    return " ".join(out) or "()"


@st.composite
def algebra_block(draw):
    """(text, dim, matrix size) of an [algebra] block."""
    kind = draw(st.sampled_from(["so3", "affine", "so2", "random"]))
    if kind == "random":
        dim, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        basis = draw(matrices(d, count=dim))
    else:
        mats = {"so3": SO3_BASIS, "affine": AFFINE_BASIS, "so2": SO2_BASIS}[kind]
        dim, d = len(mats), len(mats[0])
        if draw(st.integers(0, 3)) == 0:   # drop or repeat a basis matrix
            mats = mats[:-1] or mats * 2
        basis = " ".join(matrix_text(m) for m in mats)
    return f"[algebra]\ndim = {dim}\nmatrix_basis = {basis}\n", dim, d


@st.composite
def decomposition_block(draw, dim, d):
    kind = draw(st.sampled_from(["none", "bases", "bases+generators", "sigma", "gram"]))
    if kind == "none":
        return "", dim
    q = draw(st.integers(0, dim))
    lines = ["[decomposition]"]
    if kind == "sigma":
        lines.append(f"sigma = {draw(matrices(dim))}")
        return "\n".join(lines) + "\n", dim - q
    lines.append(f"h_basis = {draw(vectors(dim, max(q, 1)))}")
    if kind == "gram":
        lines.append(f"biinvariant_gram = {draw(matrices(dim))}")
    else:
        lines.append(f"m_basis = {draw(vectors(dim, dim - q))}")
        if kind == "bases+generators":
            lines.append(f"h_generators = {draw(matrices(d))}")
    return "\n".join(lines) + "\n", dim - q


@st.composite
def definitions(draw):
    if draw(st.integers(0, 3)) == 0:
        space = draw(st.sampled_from(["sphere2", "so(1)", "so(3)", "stiefel(2,2)",
                                      "stiefel(3,1)", "grassmann(3,0)", "grassmann(4,2)"]))
        text, n = f"space = {space}\n", 2
    else:
        text, dim, d = draw(algebra_block())
        block, n = draw(decomposition_block(dim, d))
        text += "\n" + block
    if draw(st.booleans()):
        text += f"\n[metric]\ngram = {draw(matrices(n))}\n"
    if draw(st.booleans()):
        text += "\n[connection]\nalpha = " + draw(st.sampled_from(
            ["canonical_first", "canonical_second", "levi_civita", "(1,1,1,0.5)"])) + "\n"
    return text


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(definitions())
def test_any_definition_ends_in_reports_or_a_located_error(text):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)       # m = {0} is allowed
            bundle, alpha = build_space(parse_definition(text))
            reports, _passed = check_space(bundle, alpha)
    except DefFileError as exc:
        assert exc.line, f"{exc}\n{text}"
    except DecompositionError:
        pass
    else:
        assert reports and all(np.isfinite(r.max_residual) or not r.passed for r in reports)
