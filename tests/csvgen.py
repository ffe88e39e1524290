"""Hypothesis strategy for small survival CSVs, clean or faulty."""

from hypothesis import strategies as st

from survstrat.data import Schema

MISSING_MARKERS = ["", "na", "nan", "none", "null", "?"]


@st.composite
def _any_case(draw, word):
    return "".join(c.upper() if draw(st.booleans()) else c for c in word)


@st.composite
def _padded(draw, tokens):
    """A token with optional whitespace around it; ``\\x1c`` is whitespace
    to ``str.strip`` but not to ``float``."""
    pad = st.sampled_from(["", "", " ", "\t", "  ", "\x1c"])
    return draw(pad) + draw(tokens) + draw(pad)


_POSITIVE = st.one_of(st.integers(1, 30).map(str),
                      st.floats(0.01, 100.0).map(repr))
_NUMBER = st.one_of(st.integers(-5, 5).map(str),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr))
_WORD = st.sampled_from(["I", "II", "III", "grade a", "x"])
_CLEAN = {
    "t": _POSITIVE,
    "e": st.sampled_from(["0", "1"]),
    "numeric": _NUMBER,
    "categorical": _WORD,
}
# missing markers in any case, special floats, faulty values, quoted commas
_FAULTY = st.one_of(
    _padded(st.sampled_from(MISSING_MARKERS).flatmap(_any_case)),
    _padded(st.sampled_from([
        "nan", "-nan", "+NaN", "inf", "-inf", "Infinity", "1e999", "-1e999", "1_0",
        "0", "-0", "-3", "2", "1.0", "abc", "sixty", "1.2.3", "1_", "--1",
    ])),
    _padded(_NUMBER),
    _WORD,
    st.sampled_from(['"1,5"', '"a,b"', '" 2 ,x"']),
)


@st.composite
def survival_csvs(draw, time="t", event="e", n_features=None):
    """(text, schema): columns ``time``, ``event`` and ``n_features`` (by
    default up to three) features ``f0``, ``f1``, ... in any order, and up to
    six rows. Each column has a clean style, each cell is replaced by a
    faulty token at the file's fault rate, and a row may lose or gain a
    field. The schema is either inferred (``features`` None) or explicit,
    with kinds that need not match the columns' styles."""
    if n_features is None:
        n_features = draw(st.integers(0, 3))
    features = [f"f{k}" for k in range(n_features)]
    header = draw(st.permutations([time, event] + features))
    style = {time: "t", event: "e"}
    style.update({f: draw(st.sampled_from(["numeric", "categorical"])) for f in features})
    if draw(st.booleans()):
        schema = Schema(time=time, event=event, features=None)
    else:
        schema = Schema(time=time, event=event, features={
            f: draw(st.sampled_from(["numeric", "categorical"])) for f in features
        })
    fault_tenths = draw(st.sampled_from([0, 1, 3]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        fields = [
            draw(_FAULTY if draw(st.integers(0, 9)) < fault_tenths else _CLEAN[style[c]])
            for c in header
        ]
        shape = draw(st.integers(0, 39))
        if shape == 0:
            fields.pop()
        elif shape == 1:
            fields.append(draw(_NUMBER))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n", schema
