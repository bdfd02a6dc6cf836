"""Pauli algebra, Clifford conjugation, and stabilizer tableau unit tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableau_oracle import (CliffordGate, PauliError, PauliString,
                            StabilizerTableau, apply_pauli, commutes,
                            conjugate, group_contains, multiply)


def P(label):
    return PauliString.from_label(label)


class TestPauliString:
    def test_label_roundtrip(self):
        for lab in ("+XIZY", "-iZZ", "+I", "-Y", "+iXY"):
            assert P(lab).to_label() == lab

    def test_single(self):
        assert PauliString.single(3, 1, "Y").to_label() == "+IYI"
        assert PauliString.single(2, 0, "X") == P("XI")

    def test_weight_and_identity(self):
        assert P("XIZY").weight == 3
        assert P("II").is_identity()
        assert not P("IZ").is_identity()

    def test_bad_label(self):
        with pytest.raises(PauliError):
            P("XQ")


class TestMultiply:
    # single-qubit multiplication table, (a, b) -> a*b
    TABLE = {
        ("X", "Z"): "-iY", ("Z", "X"): "+iY",
        ("X", "Y"): "+iZ", ("Y", "X"): "-iZ",
        ("Y", "Z"): "+iX", ("Z", "Y"): "-iX",
        ("X", "X"): "+I", ("Y", "Y"): "+I", ("Z", "Z"): "+I",
    }

    def test_table(self):
        for (a, b), want in self.TABLE.items():
            assert multiply(P(a), P(b)).to_label() == want

    def test_length_mismatch(self):
        with pytest.raises(PauliError):
            multiply(P("X"), P("XX"))

    @given(st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=6),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_commutation_phase(self, letters, data):
        a = P("".join(letters))
        b = P("".join(data.draw(
            st.lists(st.sampled_from("IXYZ"), min_size=len(letters),
                     max_size=len(letters)))))
        ab, ba = multiply(a, b), multiply(b, a)
        if commutes(a, b):
            assert ab == ba
        else:
            assert ab.phase == (ba.phase + 2) % 4
            assert np.array_equal(ab.x, ba.x) and np.array_equal(ab.z, ba.z)


class TestConjugate:
    CASES = [
        ("H", "X", "+Z"), ("H", "Z", "+X"), ("H", "Y", "-Y"),
        ("S", "X", "+Y"), ("S", "Y", "-X"), ("S", "Z", "+Z"),
        ("X", "Z", "-Z"), ("Z", "X", "-X"),
    ]

    def test_single_qubit(self):
        for kind, src, want in self.CASES:
            out = conjugate(CliffordGate(kind, (0,)), P(src))
            assert out.to_label() == want, (kind, src)

    def test_cnot(self):
        cx = CliffordGate("CNOT", (0, 1))
        assert conjugate(cx, P("XI")).to_label() == "+XX"
        assert conjugate(cx, P("IZ")).to_label() == "+ZZ"
        assert conjugate(cx, P("IX")).to_label() == "+IX"
        assert conjugate(cx, P("ZI")).to_label() == "+ZI"

    def test_gate_validation(self):
        with pytest.raises(PauliError):
            CliffordGate("CNOT", (2, 2))
        with pytest.raises(PauliError):
            CliffordGate("T", (0,))

    @given(st.sampled_from(["H", "S", "X", "Z"]),
           st.lists(st.sampled_from("IXYZ"), min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_conjugation_is_homomorphism(self, kind, letters):
        g = CliffordGate(kind, (0,))
        a = P("".join(letters))
        b = P("".join(reversed(letters)))
        lhs = conjugate(g, multiply(a, b))
        rhs = multiply(conjugate(g, a), conjugate(g, b))
        assert lhs == rhs


class TestTableau:
    def test_bell_pair(self):
        t = StabilizerTableau(2, ["+", "0"])
        t.apply(CliffordGate("CNOT", (0, 1)))
        assert group_contains(t, P("XX")) == (True, 1)
        assert group_contains(t, P("ZZ")) == (True, 1)
        assert group_contains(t, P("XI")) == (False, 0)

    def test_minus_state_sign(self):
        t = StabilizerTableau(1, ["-"])
        assert group_contains(t, P("X")) == (True, -1)
        out, det = t.measure(0, "X")
        assert (out, det) == (1, True)

    def test_deterministic_remeasurement(self):
        t = StabilizerTableau(1, ["0"])
        bit, det = t.measure(0, "X", lambda: 1)
        assert not det
        again, det2 = t.measure(0, "X")
        assert det2 and again == bit

    def test_nondeterministic_requires_bit_source(self):
        t = StabilizerTableau(1, ["0"])
        with pytest.raises(PauliError):
            t.measure(0, "X")

    def test_apply_pauli_flips_outcome(self):
        t = StabilizerTableau(1, ["0"])
        apply_pauli(t, P("X"))
        assert t.measure(0, "Z")[0] == 1

    def test_ghz_parity(self):
        t = StabilizerTableau(3, ["+", "0", "0"])
        t.apply(CliffordGate("CNOT", (0, 1)))
        t.apply(CliffordGate("CNOT", (1, 2)))
        assert group_contains(t, P("XXX")) == (True, 1)
        assert group_contains(t, P("ZZI")) == (True, 1)
        assert group_contains(t, P("ZIZ")) == (True, 1)
        assert group_contains(t, P("ZII")) == (False, 0)
