"""procforge.bpmn's expression parser against the reference grammar in
expr_reference.py: on every drawn condition and script, both give the same
tree, or the same ConditionParseError (message, offset, expected)."""

import pytest
from hypothesis import example, given, settings, strategies as st

import expr_reference as ref
from procforge.bpmn import ConditionParseError, parse_condition, parse_script

OPERATORS = (":=", "==", "!=", "<=", ">=", "&&", "||",
             "-", "+", "*", "/", "<", ">", "!", "(", ")", "=", ";")
BINARY = ("||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/")

identifiers = st.sampled_from(("a", "b", "x", "_y1", "true", "false", "amountRaised"))
ints = st.integers(0, 2**300).map(str)
hex_ints = st.one_of(st.integers(1, 39).flatmap(
                         lambda n: st.text("0123456789abcdefABCDEF", min_size=n, max_size=n)),
                     st.integers(41, 70).map(lambda n: "f" * n)).map(lambda d: "0x" + d)
addresses = st.text("0123456789abcdefABCDEF", min_size=40, max_size=40).map(lambda d: "0x" + d)
strings = st.text(st.characters(blacklist_characters='"\n', max_codepoint=0x7f),
                  max_size=6).map(lambda s: f'"{s}"')
leaves = st.one_of(identifiers, ints, hex_ints, addresses, strings)
# a token of any kind, and a few that no rule matches
tokens = st.one_of(leaves, st.sampled_from(OPERATORS + ("\n", "@", '"open', "0x")))


@st.composite
def expression(draw, depth):
    """The tokens of an expression `depth` levels deep along one spine: each
    level wraps the spine in parentheses, a unary operator, or a binary
    operator whose other side is a leaf or a leaf pair."""
    toks = [draw(leaves)]
    for _ in range(depth):
        form = draw(st.integers(0, 3))
        if form == 0:
            toks = ["(", *toks, ")"]
        elif form == 1:
            toks = [draw(st.sampled_from(("!", "-"))), *toks]
        else:
            other = [draw(leaves)]
            if draw(st.booleans()):
                other += [draw(st.sampled_from(BINARY)), draw(leaves)]
            op = draw(st.sampled_from(BINARY))
            toks = [*toks, op, *other] if form == 2 else [*other, op, *toks]
    return toks


# mostly operators that may follow one another, so that most chains parse
CHAINING = ("+", "-", "*", "/", "&&", "||") * 3 + ("<", "<=", "==", "!=", ">", ">=")


@st.composite
def chain(draw, depth):
    """The tokens of `term (op term)*`, where a term is a leaf, a unary
    operator and a term, or a chain `depth - 1` deep in parentheses."""
    toks = []
    for i in range(draw(st.integers(1, 5))):
        if i:
            toks.append(draw(st.sampled_from(CHAINING)))
        toks += draw(st.lists(st.sampled_from(("!", "-")), max_size=2))
        if depth and draw(st.integers(0, 3)) == 0:
            toks += ["(", *draw(chain(depth - 1)), ")"]
        else:
            toks.append(draw(leaves))
    return toks


@st.composite
def perturbed(draw, base):
    """base's tokens with up to two tokens inserted, dropped or replaced."""
    toks = list(draw(base))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(toks)))
        edit = draw(st.sampled_from(("insert", "drop", "replace")))
        if edit == "insert" or i == len(toks):
            toks.insert(i, draw(tokens))
        elif edit == "drop":
            del toks[i]
        else:
            toks[i] = draw(tokens)
    return toks


@st.composite
def joined(draw, toks):
    """The tokens as text, each gap a space, nothing or a newline."""
    parts = draw(toks)
    gaps = draw(st.lists(st.sampled_from((" ", "", "\n", "  ")),
                         min_size=len(parts), max_size=len(parts)))
    return "".join(g + p for g, p in zip(gaps, parts))


conditions = st.one_of(
    joined(perturbed(st.integers(0, 40).flatmap(expression))),
    joined(chain(3)),
    joined(st.lists(tokens, max_size=12)))


@st.composite
def statement_tokens(draw):
    out = []
    for k in range(draw(st.integers(0, 3))):
        if k:
            out.append(draw(st.sampled_from((";", "\n"))))
        out += [draw(identifiers), draw(st.sampled_from(("=", ":=")))]
        out += draw(expression(draw(st.integers(0, 40))))
    return out


@st.composite
def assignment(draw):
    return [draw(identifiers), draw(st.sampled_from(("=", ":="))), *draw(chain(3))]


scripts = st.one_of(joined(perturbed(statement_tokens())),
                    joined(assignment()),
                    joined(st.lists(tokens, max_size=12)))


def shape(node):
    """A tree as nested tuples headed by each record's class name, so that
    a Var never equals a one-element tuple of another kind."""
    if isinstance(node, tuple):
        return (type(node).__name__, *map(shape, node))
    return node


def outcome(parse, text):
    try:
        return "tree", shape(parse(text))
    except ConditionParseError as e:
        return "error", str(e), e.offset, e.expected


@settings(max_examples=200, deadline=None)
@given(conditions)
@example("a < b < c")
@example("(" * 40 + "x" + ")" * 40)
@example("!" * 33 + "b")
@example("1" * 4400)
@example("x" + " + 1" * 32 + " > 0")
@example("x" + " + 1" * 31 + " > 0")
@example("0x" + "f" * 4400 + " || a")
def test_parse_condition_matches_the_reference_grammar(text):
    assert outcome(parse_condition, text) == outcome(ref.parse_condition, text)


@settings(max_examples=200, deadline=None)
@given(scripts)
@example("x = 1; y := x + 2\nz = y * y")
@example("x = a == b != c")
@example("x")
def test_parse_script_matches_the_reference_grammar(text):
    assert outcome(parse_script, text) == outcome(ref.parse_script, text)


@pytest.mark.parametrize("text, offset", [("a < b < c", 6), ("a == b != c", 7)])
def test_comparisons_do_not_chain(text, offset):
    with pytest.raises(ConditionParseError) as exc:
        parse_condition(text)
    assert str(exc.value).startswith("trailing input")
    assert exc.value.offset == offset
