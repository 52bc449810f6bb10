"""One number rule for command-line text: a number in the inline function
syntax is any text float() reads, and an argument such as -1e-3 or -inf is a
value, not an option.  This file reads no golden, so it runs alone on any
Python the package supports."""

import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablesde.cli import main
from stablesde.funcspec import FunctionSpecError, parse_inline

#: reproducible runs that leave no example database behind
PROPERTY = settings(database=None, derandomize=True, deadline=None)


def the_form(spec):
    """The form of a spec of one piece."""
    (piece,) = spec.pieces
    return piece.form


def zero_set(spec):
    return spec.zero_intervals().intervals


@PROPERTY
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(1e-05)
@example(5e-324)
@example(-0.0)
@example(1.7976931348623157e308)
def test_every_slot_reads_a_float_repr_exactly(x):
    """repr(x) in each number slot of the three forms parses to x itself,
    the sign of a zero included; c takes |x|, as a coefficient is >= 0."""
    r, c = repr(x), abs(x)
    cases = [
        (f"power:|x|^{r}", lambda s: the_form(s).e, x),
        (f"power:|x-{r}|^0.5", lambda s: the_form(s).p, x),
        (f"power:|x|^0.5*{c!r}", lambda s: the_form(s).c, c),
        (f"const:{c!r}", lambda s: the_form(s).c, c),
        (f"indicator:complement:[{r},inf)", lambda s: zero_set(s)[0][0], x),
        (f"indicator:complement:[-inf,{r})", lambda s: zero_set(s)[0][1], x),
    ]
    for text, read, want in cases:
        assert repr(read(parse_inline(text))) == repr(want), text


@pytest.mark.parametrize("text, same", [
    ("power:|x|^5e-1", "power:|x|^0.5"),
    ("power:|x-1e-3|^0.5", "power:|x-0.001|^0.5"),
    ("power:|x--1E+1|^-.25*2.5e0", "power:|x--10|^-0.25*2.5"),
    ("indicator:complement:[1e-3,2)", "indicator:complement:[0.001,2)"),
    ("indicator:complement:[-1e0,+2.)", "indicator:complement:[-1,2)"),
    ("const:25e-1", "const:2.5"),
])
def test_exponent_forms_parse_to_the_decimal_spec(text, same):
    assert parse_inline(text) == parse_inline(same)


@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", "0.5", "--sigma", "power:|x|^0.5", "--at", "-1e-3"],
    ["classify", "--alpha", "0.5", "--sigma", "power:|x|^0.5", "--at", "-.5", "--at", "-2"],
    ["solve", "--alpha", "0.5", "--sigma", "power:|x|^1.5", "--z", "-1e3",
     "--horizon", "1", "--step", "0.01"],
    ["simulate", "--alpha", "0.5", "--z", "-1E-3", "--horizon", "1", "--step", "0.1"],
])
def test_negative_value_reads_as_its_equals_form(argv, capsys):
    """`--opt -1e-3` writes the same bytes as `--opt=-1e-3`."""
    joined = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    assert len(joined) < len(argv)
    assert main(joined) == 0
    want = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
def test_non_finite_negative_value_is_refused_as_a_value(value, capsys):
    """-inf and -nan reach classify as values, which refuses them as it
    refuses their `=` forms."""
    argv = ["classify", "--alpha", "0.5", "--sigma", "power:|x|^0.5", "--at"]
    assert main([*argv[:-1], f"--at={value}"]) == 1
    want = capsys.readouterr().err
    assert main([*argv, value]) == 1
    assert capsys.readouterr().err == want
    assert "expected one argument" not in want


def test_dash_and_a_letter_is_still_an_option(capsys):
    assert main(["classify", "--alpha", "0.5", "--sigma", "power:|x|^0.5", "--at", "-x"]) == 1
    assert "expected one argument" in json.loads(capsys.readouterr().err)["detail"]


@pytest.mark.parametrize("text", [
    "const:1-2",
    "power:|x|^0.5*3*4",
    "indicator:complement:[1,2,3)",
    "power:|x|^nan",
    "power:|x-inf|^0.5",
    "power:|x|^0.5*-1",
    "const:0x1p-2",
])
def test_text_or_value_refused_is_validation(text, capsys):
    """Text float() cannot read, and a value the spec refuses, exit 1 as
    validation, naming the inline text."""
    assert main(["classify", "--alpha", "0.5", "--sigma", text]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and repr(text) in err["detail"]
    with pytest.raises(FunctionSpecError, match=f"inline function {re.escape(repr(text))}"):
        parse_inline(text)


@pytest.mark.parametrize("text", ["power:|x+1|^2", "power:|x|^", "const:", "indicator:[1,2)"])
def test_text_of_no_form_is_refused(text):
    with pytest.raises(FunctionSpecError, match="cannot parse inline function"):
        parse_inline(text)


def test_const_reads_inf_as_float_does():
    """const:inf is the function that is +inf everywhere: float() reads inf."""
    assert math.isinf(the_form(parse_inline("const:inf")).c)

