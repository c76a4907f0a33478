"""Differential testing: three executors, one semantics.

Hypothesis generates random (but well-defined) mini-C programs; each must
produce identical output on the RISC I simulator, the VAX-like simulator,
and the IR interpreter, and match a Python evaluation of the same
expression.  This is the strongest correctness net over the whole
compiler + simulators stack.
"""

from hypothesis import given, settings, strategies as st

from repro.cc.driver import compile_program, run_compiled
from repro.cc.irvm import run_ir

WORD = 0xFFFFFFFF


def wrap(value: int) -> int:
    value &= WORD
    return value - (1 << 32) if value & 0x80000000 else value


# -- random expression generator ----------------------------------------------------
#
# Expressions are built as (python_value, c_source) pairs over three
# variables with known values, avoiding divide-by-zero and undefined
# shifts by construction.

_VARS = {"a": 13, "b": -7, "c": 100}


def _leaf(draw):
    choice = draw(st.integers(0, 3))
    if choice < 3:
        name = draw(st.sampled_from(sorted(_VARS)))
        return _VARS[name], name
    value = draw(st.integers(-5000, 5000))
    if value < 0:
        return value, f"(0 - {-value})"  # avoid double unary-minus tokens
    return value, str(value)


def _expr(draw, depth: int):
    if depth == 0:
        return _leaf(draw)
    kind = draw(st.integers(0, 8))
    if kind == 0:
        return _leaf(draw)
    left_value, left_src = _expr(draw, depth - 1)
    right_value, right_src = _expr(draw, depth - 1)
    if kind in (1, 2):
        op = draw(st.sampled_from(["+", "-", "*"]))
        value = {
            "+": wrap(left_value + right_value),
            "-": wrap(left_value - right_value),
            "*": wrap(left_value * right_value),
        }[op]
        return value, f"({left_src} {op} {right_src})"
    if kind == 3:
        if right_value == 0:
            return left_value, left_src
        op = draw(st.sampled_from(["/", "%"]))
        q = int(left_value / right_value)
        value = q if op == "/" else left_value - q * right_value
        return wrap(value), f"({left_src} {op} {right_src})"
    if kind == 4:
        op = draw(st.sampled_from(["&", "|", "^"]))
        value = {
            "&": (left_value & WORD) & (right_value & WORD),
            "|": (left_value & WORD) | (right_value & WORD),
            "^": (left_value & WORD) ^ (right_value & WORD),
        }[op]
        return wrap(value), f"({left_src} {op} {right_src})"
    if kind == 5:
        shift = draw(st.integers(0, 12))
        op = draw(st.sampled_from(["<<", ">>"]))
        if op == "<<":
            value = wrap((left_value & WORD) << shift)
        else:
            value = wrap(left_value) >> shift
        return wrap(value), f"({left_src} {op} {shift})"
    if kind == 6:
        op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
        value = int(
            {
                "==": left_value == right_value,
                "!=": left_value != right_value,
                "<": left_value < right_value,
                "<=": left_value <= right_value,
                ">": left_value > right_value,
                ">=": left_value >= right_value,
            }[op]
        )
        return value, f"({left_src} {op} {right_src})"
    if kind == 7:
        op = draw(st.sampled_from(["&&", "||"]))
        if op == "&&":
            value = int(bool(left_value) and bool(right_value))
        else:
            value = int(bool(left_value) or bool(right_value))
        return value, f"({left_src} {op} {right_src})"
    # unary
    op = draw(st.sampled_from(["-", "~", "!"]))
    value = {"-": wrap(-left_value), "~": wrap(~left_value), "!": int(not left_value)}[op]
    return value, f"({op}{left_src})"


@st.composite
def expression(draw, depth=3):
    return _expr(draw, depth)


def run_everywhere(source: str) -> list[str]:
    outputs = []
    for target in ("risc1", "cisc"):
        compiled = compile_program(source, target=target)
        outputs.append(run_compiled(compiled, max_steps=5_000_000).output)
    outputs.append(run_ir(compile_program(source, target="risc1").ir).output)
    return outputs


@settings(max_examples=40, deadline=None)
@given(expression())
def test_expression_agreement(pair):
    expected, source_expr = pair
    source = f"""
    int id(int x) {{ return x; }}
    int main() {{
        int a = id({_VARS['a']});
        int b = id({_VARS['b']});
        int c = id({_VARS['c']});
        putint({source_expr});
        return 0;
    }}
    """
    outputs = run_everywhere(source)
    assert outputs[0] == outputs[1] == outputs[2] == str(expected), source_expr


@settings(max_examples=15, deadline=None)
@given(
    values=st.lists(st.integers(-1000, 1000), min_size=1, max_size=12),
    threshold=st.integers(-500, 500),
)
def test_loop_and_array_agreement(values, threshold):
    """A random array-walking program with branches and accumulation."""
    n = len(values)
    inits = "\n        ".join(
        f"data[{i}] = {v if v >= 0 else f'0 - {-v}'};" for i, v in enumerate(values)
    )
    source = f"""
    int data[16];
    int main() {{
        {inits}
        int above = 0;
        int total = 0;
        for (int i = 0; i < {n}; i++) {{
            if (data[i] > {threshold if threshold >= 0 else f'0 - {-threshold}'}) {{
                above++;
            }} else {{
                total += data[i];
            }}
        }}
        putint(above); putchar(' '); putint(total);
        return 0;
    }}
    """
    expected_above = sum(1 for v in values if v > threshold)
    expected_total = sum(v for v in values if v <= threshold)
    outputs = run_everywhere(source)
    assert outputs[0] == outputs[1] == outputs[2] == f"{expected_above} {expected_total}"
