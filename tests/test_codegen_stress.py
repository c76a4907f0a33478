"""Stress tests for code-generation corner cases on both backends:
temporaries spilled across calls, deep expression nesting, register-pool
exhaustion, large frames, and big constants."""

import pytest

from repro.cc.driver import compile_program, run_compiled

TARGETS = ["risc1", "cisc"]


def run(source, target):
    compiled = compile_program(source, target=target)
    return run_compiled(compiled, max_steps=20_000_000)


@pytest.mark.parametrize("target", TARGETS)
class TestSpillPressure:
    def test_many_call_results_live_simultaneously(self, target):
        """Ten call results alive at once: far beyond both temp pools."""
        source = """
        int g(int x) { return x + 1; }
        int main() {
            putint(g(1) + g(2) + g(3) + g(4) + g(5)
                 + g(6) + g(7) + g(8) + g(9) + g(10));
            return 0;
        }
        """
        assert run(source, target).output == str(sum(range(2, 12)))

    def test_nested_calls_as_arguments(self, target):
        source = """
        int add(int a, int b) { return a + b; }
        int main() {
            putint(add(add(1, 2), add(add(3, 4), add(5, 6))));
            return 0;
        }
        """
        assert run(source, target).output == "21"

    def test_deeply_nested_expression(self, target):
        # a right-leaning tree keeps many partial results live
        expr = "1"
        total = 1
        for i in range(2, 14):
            expr = f"({i} - {expr})"
            total = i - total
        source = f"""
        int id(int x) {{ return x; }}
        int main() {{ putint(id({expr})); return 0; }}
        """
        assert run(source, target).output == str(total)

    def test_spilled_temps_survive_loops(self, target):
        """Temps that live across a loop back-edge while spilled."""
        source = """
        int g(int x) { return x * 2; }
        int main() {
            int a = g(1); int b = g(2); int c = g(3); int d = g(4);
            int e = g(5); int f = g(6); int h = g(7); int i = g(8);
            int j = g(9); int k = g(10); int l = g(11);
            int total = 0;
            for (int n = 0; n < 3; n++) {
                total += a + b + c + d + e + f + h + i + j + k + l;
            }
            putint(total);
            return 0;
        }
        """
        assert run(source, target).output == str(3 * 2 * sum(range(1, 12)))


@pytest.mark.parametrize("target", TARGETS)
class TestFramesAndConstants:
    def test_large_local_array_frame(self, target):
        source = """
        int main() {
            int big[300];
            for (int i = 0; i < 300; i++) big[i] = i;
            int total = 0;
            for (int i = 0; i < 300; i += 50) total += big[i];
            putint(total);
            return 0;
        }
        """
        assert run(source, target).output == str(sum(range(0, 300, 50)))

    def test_two_local_arrays_do_not_alias(self, target):
        source = """
        int main() {
            int a[10]; int b[10];
            for (int i = 0; i < 10; i++) { a[i] = i; b[i] = 100 + i; }
            putint(a[5]); putchar(' '); putint(b[5]);
            return 0;
        }
        """
        assert run(source, target).output == "5 105"

    def test_big_constants_everywhere(self, target):
        source = """
        int big = 0x7FFFFFFF;
        int main() {
            int x = 123456789;
            putint(x); putchar(' ');
            putint(big); putchar(' ');
            putint(-2147483647); putchar(' ');
            putint(x + 100000000);
            return 0;
        }
        """
        assert (
            run(source, target).output
            == "123456789 2147483647 -2147483647 223456789"
        )

    def test_offsets_beyond_immediate_range(self, target):
        """Array accesses whose byte offsets exceed 13 bits."""
        source = """
        int big[1500];
        int main() {
            big[1400] = 77;
            big[1499] = 88;
            putint(big[1400] + big[1499]);
            return 0;
        }
        """
        assert run(source, target).output == "165"

    def test_char_array_in_frame_with_scalars(self, target):
        source = """
        int main() {
            char buf[13];
            int guard1 = 111;
            for (int i = 0; i < 12; i++) buf[i] = 'a' + i;
            buf[12] = 0;
            int guard2 = 222;
            puts(buf);
            putchar(' ');
            putint(guard1 + guard2);
            return 0;
        }
        """
        assert run(source, target).output == "abcdefghijkl 333"


@pytest.mark.parametrize("target", TARGETS)
class TestControlFlowTorture:
    def test_deep_nesting_of_ifs(self, target):
        depth = 12
        open_ifs = "".join(f"if (x > {i}) {{ " for i in range(depth))
        close = "}" * depth
        source = f"""
        int probe(int x) {{
            int hits = 0;
            {open_ifs} hits = {depth}; {close}
            return hits;
        }}
        int main() {{
            putint(probe({depth + 1})); putint(probe(3)); putint(probe(0));
            return 0;
        }}
        """
        assert run(source, target).output == f"{depth}00"

    def test_break_continue_in_nested_loops(self, target):
        source = """
        int main() {
            int total = 0;
            for (int i = 0; i < 6; i++) {
                if (i == 4) break;
                for (int j = 0; j < 6; j++) {
                    if (j == i) continue;
                    if (j > 3) break;
                    total += 10 * i + j;
                }
            }
            putint(total);
            return 0;
        }
        """
        expected = 0
        for i in range(6):
            if i == 4:
                break
            for j in range(6):
                if j == i:
                    continue
                if j > 3:
                    break
                expected += 10 * i + j
        assert run(source, target).output == str(expected)

    def test_do_while_with_complex_condition(self, target):
        source = """
        int main() {
            int i = 0; int hits = 0;
            do {
                i++;
                if (i % 3 == 0 || i % 5 == 0) hits++;
            } while (i < 30 && hits < 12);
            putint(i); putchar(' '); putint(hits);
            return 0;
        }
        """
        i = hits = 0
        while True:
            i += 1
            if i % 3 == 0 or i % 5 == 0:
                hits += 1
            if not (i < 30 and hits < 12):
                break
        assert run(source, target).output == f"{i} {hits}"
