"""Unit tests for the differential fuzzer (`repro.fuzz`).

The heavy lifting — actually finding divergences — happens in fuzz
campaigns; what lives here are the machine-checkable contracts the
subsystem promises: seed determinism, the every-profile-compiles
invariant, cross-check report round-trips, ddmin minimality, and
byte-stable campaign reports.
"""

import json

import pytest

from repro.cc.driver import compile_program
from repro.fuzz.campaign import corpus_filename, run_campaign, triage_text
from repro.fuzz.crosscheck import CrossCheckReport, Divergence, crosscheck_seed
from repro.fuzz.gen import PROFILES, generate_source
from repro.fuzz.minimize import MinimizeError, _ddmin_list, minimize_source


class TestGenerator:
    def test_same_seed_same_bytes(self):
        assert generate_source(17) == generate_source(17)
        assert generate_source(17, "deep-calls") == generate_source(17, "deep-calls")

    def test_distinct_seeds_differ(self):
        assert generate_source(0) != generate_source(1)

    def test_header_names_seed_and_profile(self):
        first = generate_source(42, "small").splitlines()[0]
        assert "seed=42" in first and "profile=small" in first

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz profile"):
            generate_source(0, "no-such-profile")

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("target", ["risc1", "cisc"])
    def test_every_profile_compiles(self, profile, target):
        # the generator's grammar must stay inside the RCC subset for
        # every profile and target — a seed that fails to compile is a
        # generator bug, not a finding
        for seed in range(3):
            compile_program(generate_source(seed, profile), target=target)


class TestCrossCheck:
    def test_clean_seed_is_ok_and_round_trips(self):
        report = crosscheck_seed(0, max_steps=2_000_000)
        assert report.status == "ok"
        assert report.ok
        assert report.signature() == ""
        again = CrossCheckReport.from_dict(report.to_dict())
        assert again.to_dict() == report.to_dict()
        assert "ok" in report.render()

    def test_measured_oracles_agree_on_the_pipeline(self):
        report = crosscheck_seed(1, max_steps=2_000_000)
        assert report.ok
        for machine in ("risc", "vax"):
            reference = report.oracles[f"{machine}-ref"]["pipeline"]
            assert reference is not None and reference["instructions"]
            assert report.oracles[f"{machine}-fast-uarch"]["pipeline"] == reference
            assert report.oracles[f"{machine}-fast"]["pipeline"] is None

    def test_divergence_signature_is_stable(self):
        div = Divergence(
            check="risc-ref-vs-vax-ref",
            kind="cross",
            left="risc-ref",
            right="vax-ref",
            fields={"output": ("1", "2"), "exit_code": (0, 1)},
        )
        # sorted field names, so the signature never depends on dict order
        assert div.signature() == "risc-ref-vs-vax-ref|exit_code,output"
        assert Divergence.from_dict(div.to_dict()).signature() == div.signature()


class TestMinimize:
    def test_ddmin_finds_a_minimal_sublist(self):
        items = list(range(12))
        kept = _ddmin_list(items, lambda cand: 3 in cand and 7 in cand)
        assert sorted(kept) == [3, 7]

    def test_ddmin_prefers_empty_when_anything_passes(self):
        assert _ddmin_list([1, 2, 3], lambda cand: True) == []

    def test_clean_program_is_not_minimizable(self):
        with pytest.raises(MinimizeError):
            minimize_source(generate_source(0), max_steps=2_000_000)


class TestCampaign:
    def test_serial_campaign_is_clean_and_byte_stable(self):
        runs = [
            run_campaign(range(3), serial=True, ledger=False, minimize=False)
            for _ in range(2)
        ]
        for report in runs:
            assert report.clean
            assert report.checked == 3 and report.ok == 3
        first, second = (json.dumps(r.to_dict(), sort_keys=True) for r in runs)
        assert first == second

    def test_triage_text_summarizes_a_clean_report(self):
        report = run_campaign(range(1), serial=True, ledger=False, minimize=False)
        text = triage_text(report.to_dict())
        assert "checked=1" in text and "ok=1" in text

    def test_corpus_filename_is_zero_padded(self):
        assert corpus_filename(4, "default") == "seed00000004_default.c"
