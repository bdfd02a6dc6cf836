"""Logical-level protocol structure, formulas, and exhaustive oracle tests."""
import numpy as np
import pytest

from msdsim.protocols import (FIFTEEN_TO_ONE, SEVEN_TO_ONE, analytic_pout,
                              analytic_pout_7to1, analytic_pout_15to1,
                              build_protocol, discard_ratio,
                              exhaustive_oracle, sample_logical_shots)
from tableau_oracle import (CliffordGate, PauliString, StabilizerTableau,
                            _single_error_flips, group_contains,
                            run_logical_shot)


def _pauli_on(kind, support, n):
    return PauliString.from_label(
        "".join(kind if q in support else "I" for q in range(n)))


class TestStructure:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_protocol("ThreeToOne")

    def test_counts(self):
        s7 = build_protocol(SEVEN_TO_ONE)
        assert (s7.num_data, s7.num_resources, len(s7.checks)) == (8, 7, 3)
        s15 = build_protocol(FIFTEEN_TO_ONE)
        assert (s15.num_data, s15.num_resources, len(s15.checks)) == (16, 15, 4)

    def test_sublayers_conflict_free(self):
        """Each CNOT layer touches each qubit at most once, so the builders
        apply a layer's CNOTs as one simultaneous step."""
        for kind in (SEVEN_TO_ONE, FIFTEEN_TO_ONE):
            for layer in build_protocol(kind).cnot_layers:
                qubits = [q for pair in layer for q in pair]
                assert len(qubits) == len(set(qubits))

    def test_network_group_is_code_times_bell(self):
        """After the CNOT network the stabilizer group is the [7,1] code on
        qubits 1..7 together with the entangled-logical pair on qubit 0."""
        spec = build_protocol(SEVEN_TO_ONE)
        t = StabilizerTableau(8, [spec.init_basis(q) for q in range(8)])
        for layer in spec.cnot_layers:
            for c, tgt in layer:
                t.apply(CliffordGate("CNOT", (c, tgt)))
        for sup in ({1, 3, 5, 7}, {2, 3, 6, 7}, {4, 5, 6, 7}):
            assert group_contains(t, _pauli_on("X", sup, 8)) == (True, 1)
            assert group_contains(t, _pauli_on("Z", sup, 8)) == (True, 1)
        full = set(range(8))
        assert group_contains(t, _pauli_on("X", full, 8)) == (True, 1)
        assert group_contains(t, _pauli_on("Z", full, 8)) == (True, 1)
        assert group_contains(t, _pauli_on("X", {0}, 8)) == (False, 0)
        assert group_contains(t, _pauli_on("Z", {0}, 8)) == (False, 0)


class TestFormulas:
    def test_reference_values(self):
        assert analytic_pout_7to1(0.01) == pytest.approx(7.214219e-06, rel=1e-6)
        assert analytic_pout_15to1(0.01) == pytest.approx(3.608768e-05, rel=1e-6)

    def test_limits(self):
        assert analytic_pout_7to1(0.0) == 0.0
        assert analytic_pout_15to1(0.0) == 0.0
        assert analytic_pout_15to1(0.5) == pytest.approx(0.5)

    def test_leading_order(self):
        p = 1e-5
        assert analytic_pout_7to1(p) / (7 * p**3) == pytest.approx(1.0, abs=1e-3)
        assert analytic_pout_15to1(p) / (35 * p**3) == pytest.approx(1.0, abs=1e-3)


class TestOracle:
    def test_accepted_counts_are_hamming_codes(self):
        assert int(exhaustive_oracle(SEVEN_TO_ONE).accepted.sum()) == 16
        assert int(exhaustive_oracle(FIFTEEN_TO_ONE).accepted.sum()) == 2048

    def test_zero_pattern(self):
        # A shot record is its acceptance and output error; the raw
        # Clifford-correction (frame) parity is gauge, so no record holds it.
        for kind in (SEVEN_TO_ONE, FIFTEEN_TO_ONE):
            rec = run_logical_shot(build_protocol(kind), 0)
            assert rec.accepted and not rec.output_error

    def test_single_errors_all_rejected(self):
        for kind in (SEVEN_TO_ONE, FIFTEEN_TO_ONE):
            table = exhaustive_oracle(kind)
            for r in range(table.num_resources):
                assert not table.accepted[1 << r]

    def test_minimum_undetected_weight_is_three(self):
        for kind, count in ((SEVEN_TO_ONE, 7), (FIFTEEN_TO_ONE, 35)):
            table = exhaustive_oracle(kind)
            assert table.error_by_weight[0] == 0
            assert table.error_by_weight[1] == 0
            assert table.error_by_weight[2] == 0
            assert table.error_by_weight[3] == count

    def test_oracle_matches_formula(self):
        for kind in (SEVEN_TO_ONE, FIFTEEN_TO_ONE):
            table = exhaustive_oracle(kind)
            for p in np.linspace(0.0, 0.5, 20):
                assert table.p_out(p) == pytest.approx(
                    analytic_pout(kind, p), abs=1e-12)

    def test_discard_values(self):
        assert discard_ratio(build_protocol(SEVEN_TO_ONE), 0.01) == \
            pytest.approx(0.0679, abs=2e-4)
        assert discard_ratio(build_protocol(FIFTEEN_TO_ONE), 0.01) == \
            pytest.approx(0.1399, abs=2e-4)

    def test_discard_validates_input(self):
        with pytest.raises(ValueError):
            discard_ratio(build_protocol(SEVEN_TO_ONE), 1.5)

    def test_pattern_out_of_range(self):
        with pytest.raises(ValueError):
            run_logical_shot(build_protocol(SEVEN_TO_ONE), 1 << 7)

    def test_syndrome_map_equals_single_error_tableau_runs(self):
        for kind in (SEVEN_TO_ONE, FIFTEEN_TO_ONE):
            spec = build_protocol(kind)
            check_masks, out_flips = spec.syndrome_map()
            tab_masks, tab_flips = _single_error_flips(spec)
            assert np.array_equal(check_masks, tab_masks)
            assert np.array_equal(out_flips, tab_flips)

    @staticmethod
    def _assert_table_equals_tableau(kind, patterns, rng):
        spec, table = build_protocol(kind), exhaustive_oracle(kind)
        for pat in patterns:
            rec = run_logical_shot(spec, pat, rng)
            assert rec.accepted == bool(table.accepted[pat]), pat
            assert rec.output_error == bool(table.output_error[pat]), pat

    def test_7to1_table_equals_tableau_on_every_pattern(self):
        self._assert_table_equals_tableau(SEVEN_TO_ONE, range(1 << 7),
                                          np.random.default_rng(3))

    def test_15to1_table_equals_tableau_on_singles_and_random_patterns(self):
        """Every single error, then 24 multi-error patterns drawn at seed 17."""
        rng = np.random.default_rng(17)
        randoms = [int(p) for p in rng.integers(0, 1 << 15, size=24)]
        assert all(bin(p).count("1") > 1 for p in randoms)
        self._assert_table_equals_tableau(
            FIFTEEN_TO_ONE, [1 << r for r in range(15)] + randoms, rng)

    def test_csv_table(self):
        lines = exhaustive_oracle(SEVEN_TO_ONE).to_csv().splitlines()
        assert lines[0] == "pattern,accepted,output_error"
        assert len(lines) == 129
        assert lines[1] == "0,1,0"


class TestSampling:
    def test_extremes(self):
        rng = np.random.default_rng(0)
        assert sample_logical_shots(SEVEN_TO_ONE, 0.0, 1000, rng) == (1000, 0)
        # all-ones pattern: accepted (a codeword) with a guaranteed output error
        assert sample_logical_shots(SEVEN_TO_ONE, 1.0, 1000, rng) == (1000, 1000)

    def test_statistics_track_formula(self):
        rng = np.random.default_rng(42)
        p = 0.1
        acc, err = sample_logical_shots(SEVEN_TO_ONE, p, 200_000, rng)
        table = exhaustive_oracle(SEVEN_TO_ONE)
        assert acc / 200_000 == pytest.approx(table.p_accept(p), abs=0.005)
        assert err / acc == pytest.approx(analytic_pout_7to1(p), abs=0.002)
