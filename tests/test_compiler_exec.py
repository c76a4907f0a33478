"""End-to-end compiler tests: the same mini-C program must produce the same
output on the RISC I simulator and on the VAX-like baseline.

This cross-target agreement is the load-bearing property for the paper's
benchmark comparisons — identical semantics, different machines.
"""

import pytest

from repro.cc.driver import compile_program, run_compiled

TARGETS = ["risc1", "cisc"]


def run(src, target, max_instructions=20_000_000):
    compiled = compile_program(src, target=target)
    result = run_compiled(compiled, max_steps=max_instructions)
    return result


PROGRAMS = {
    "arith": (
        """
        int main() {
            putint(7 + 3); putchar(' ');
            putint(7 - 10); putchar(' ');
            putint(6 * 7); putchar(' ');
            putint(45 / 7); putchar(' ');
            putint(45 % 7); putchar(' ');
            putint(-45 / 7); putchar(' ');
            putint(-45 % 7);
            return 0;
        }
        """,
        "10 -3 42 6 3 -6 -3",
    ),
    "runtime_arith": (
        """
        int id(int x) { return x; }
        int main() {
            int a = id(45); int b = id(7); int c = id(-45);
            putint(a * b); putchar(' ');
            putint(a / b); putchar(' ');
            putint(a % b); putchar(' ');
            putint(c / b); putchar(' ');
            putint(c % b); putchar(' ');
            putint(a / id(-7)); putchar(' ');
            putint(id(1 << 30) * 4);
            return 0;
        }
        """,
        "315 6 3 -6 -3 -6 0",
    ),
    "bitwise": (
        """
        int main() {
            putint(0xF0 & 0x3C); putchar(' ');
            putint(0xF0 | 0x0F); putchar(' ');
            putint(0xFF ^ 0x0F); putchar(' ');
            putint(~0); putchar(' ');
            putint(1 << 10); putchar(' ');
            putint(-64 >> 3);
            return 0;
        }
        """,
        "48 255 240 -1 1024 -8",
    ),
    "variable_shift": (
        """
        int main() {
            int n = 3; int x = 5;
            putint(x << n); putchar(' ');
            putint((0 - 64) >> n);
            return 0;
        }
        """,
        "40 -8",
    ),
    "loops": (
        """
        int main() {
            int total = 0;
            for (int i = 1; i <= 10; i++) total += i;
            putint(total); putchar(' ');
            int j = 0;
            while (j < 5) j++;
            putint(j); putchar(' ');
            int k = 0;
            do { k += 2; } while (k < 7);
            putint(k);
            return 0;
        }
        """,
        "55 5 8",
    ),
    "break_continue": (
        """
        int main() {
            int total = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 2 == 0) continue;
                if (i > 10) break;
                total += i;
            }
            putint(total);
            return 0;
        }
        """,
        "25",
    ),
    "arrays": (
        """
        int squares[10];
        int main() {
            for (int i = 0; i < 10; i++) squares[i] = i * i;
            int total = 0;
            for (int i = 0; i < 10; i++) total += squares[i];
            putint(total);
            return 0;
        }
        """,
        "285",
    ),
    "local_arrays": (
        """
        int main() {
            int a[5];
            for (int i = 0; i < 5; i++) a[i] = i + 1;
            int product = 1;
            for (int i = 0; i < 5; i++) product *= a[i];
            putint(product);
            return 0;
        }
        """,
        "120",
    ),
    "pointers": (
        """
        void bump(int *p) { *p = *p + 5; }
        int main() {
            int x = 10;
            bump(&x);
            int a[3];
            a[0] = 1; a[1] = 2; a[2] = 3;
            int *p = a;
            p++;
            putint(x); putchar(' ');
            putint(*p); putchar(' ');
            putint(p - a);
            return 0;
        }
        """,
        "15 2 1",
    ),
    "chars_and_strings": (
        """
        int length(char *s) {
            int n = 0;
            while (s[n]) n++;
            return n;
        }
        int main() {
            puts("hello ");
            char buf[8];
            buf[0] = 'h'; buf[1] = 'i'; buf[2] = 0;
            puts(buf);
            putchar(' ');
            putint(length("four"));
            return 0;
        }
        """,
        "hello hi 4",
    ),
    "char_signedness": (
        """
        int main() {
            char buf[2];
            buf[0] = 200;
            putint(buf[0]);
            return 0;
        }
        """,
        "-56",
    ),
    "recursion": (
        """
        int ack(int m, int n) {
            if (m == 0) return n + 1;
            if (n == 0) return ack(m - 1, 1);
            return ack(m - 1, ack(m, n - 1));
        }
        int main() { putint(ack(2, 3)); return 0; }
        """,
        "9",
    ),
    "mutual_recursion": (
        """
        int is_odd(int n);
        int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
        int main() { putint(is_even(10)); putint(is_odd(10)); return 0; }
        """,
        "10",
    ),
    "logical_ops": (
        """
        int side_effects = 0;
        int tick(int v) { side_effects++; return v; }
        int main() {
            putint(1 && 2); putint(0 || 3); putint(!5); putint(!0);
            putchar(' ');
            int r = tick(0) && tick(1);   // short circuit: one tick only
            putint(side_effects);
            return 0;
        }
        """,
        "1101 1",
    ),
    "comparisons": (
        """
        int main() {
            putint(3 < 5); putint(5 < 3); putint(3 <= 3);
            putint(5 > 3); putint(3 >= 5); putint(3 == 3); putint(3 != 3);
            putchar(' ');
            int a = -1; int b = 1;
            putint(a < b);
            return 0;
        }
        """,
        "1011010 1",
    ),
    "compound_assign": (
        """
        int main() {
            int x = 10;
            x += 5; x -= 3; x *= 4; x /= 6; x %= 5;
            putint(x); putchar(' ');
            x = 0xF0;
            x &= 0x3C; x |= 1; x ^= 0xFF; x <<= 2; x >>= 1;
            putint(x);
            return 0;
        }
        """,
        "3 412",
    ),
    "incdec": (
        """
        int main() {
            int i = 5;
            putint(i++); putint(i); putint(++i); putint(i--); putint(--i);
            putchar(' ');
            int a[3]; a[0] = 0; a[1] = 0; a[2] = 0;
            int j = 0;
            a[j++] = 7;
            putint(a[0]); putint(j);
            return 0;
        }
        """,
        "56775 71",
    ),
    "globals": (
        """
        int counter = 100;
        int limit;
        void advance() { counter += 10; }
        int main() {
            limit = 3;
            for (int i = 0; i < limit; i++) advance();
            putint(counter);
            return 0;
        }
        """,
        "130",
    ),
    "many_locals_spill": (
        """
        int main() {
            int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
            int f = 6; int g = 7; int h = 8; int i = 9; int j = 10;
            int k = 11; int l = 12;
            putint(a + b + c + d + e + f + g + h + i + j + k + l);
            return 0;
        }
        """,
        "78",
    ),
    "deep_expression": (
        """
        int main() {
            int x = 1;
            putint(((((x + 2) * 3 - 4) / 5 * 6 + 7) * 8 - 9) % 100);
            return 0;
        }
        """,
        "95",
    ),
    "five_args": (
        """
        int sum5(int a, int b, int c, int d, int e) {
            return a + b + c + d + e;
        }
        int main() { putint(sum5(1, 2, 3, 4, 5)); return 0; }
        """,
        "15",
    ),
    "exit_code": (
        """
        int main() { return 42; }
        """,
        "",
    ),
}


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program(name, target):
    source, expected = PROGRAMS[name]
    result = run(source, target)
    assert result.output == expected, f"{name} on {target}"
    if name == "exit_code":
        assert result.exit_code == 42
    else:
        assert result.exit_code == 0


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_targets_agree(name):
    """Both machines must compute identical results from the same source."""
    source, _ = PROGRAMS[name]
    risc = run(source, "risc1")
    cisc = run(source, "cisc")
    assert risc.output == cisc.output
    assert risc.exit_code == cisc.exit_code


class TestCrossTargetShape:
    """The paper's qualitative claims, on a miniature scale."""

    FIB = """
    int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
    int main() { putint(fib(12)); return 0; }
    """

    def test_risc_executes_more_instructions_but_fewer_effective_ns(self):
        risc = run(self.FIB, "risc1")
        cisc = run(self.FIB, "cisc")
        risc_ns = risc.stats.cycles * 400
        cisc_ns = cisc.stats.cycles * 200
        assert risc_ns < cisc_ns  # RISC I wins on time despite the slower clock

    def test_risc_makes_fewer_data_references_on_call_heavy_code(self):
        """Register windows should slash call-related memory traffic."""
        risc = run(self.FIB, "risc1")
        cisc = run(self.FIB, "cisc")
        assert risc.stats.data_references < cisc.stats.data_references / 2

    def test_cisc_code_is_denser(self):
        risc = compile_program(self.FIB, target="risc1")
        cisc = compile_program(self.FIB, target="cisc")
        assert cisc.code_size < risc.code_size


class TestCompilerLimits:
    def test_six_args_rejected_on_risc(self):
        src = """
        int f(int a, int b, int c, int d, int e, int g) { return a; }
        int main() { return f(1,2,3,4,5,6); }
        """
        from repro.cc.errors import CompileError

        with pytest.raises(CompileError, match="5"):
            compile_program(src, target="risc1")
