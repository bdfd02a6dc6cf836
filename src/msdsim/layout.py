"""Rotated surface-code patch geometry.

A distance-d patch has d*d data qubits on a square grid and (d*d-1) weight-2/4
plaquette stabilizers, half X-type and half Z-type, each with one ancilla.
Data qubit (row i, col j) has index i*d + j; ancilla for plaquette k has index
d*d + k.  The logical X is the column-0 X chain; the logical Z is the row-0
Z chain.
"""
from __future__ import annotations

from dataclasses import dataclass

# Corner visit orders for the syndrome-extraction CNOT sub-steps.  Z-type
# plaquettes run their corners in N,W,E,S order and X-type in N,E,W,S order
# (hook errors then align perpendicular to the matching logical operator).
X_SCHEDULE = ("nw", "ne", "sw", "se")
Z_SCHEDULE = ("nw", "sw", "ne", "se")


@dataclass(frozen=True)
class Plaquette:
    kind: str                 # "X" or "Z"
    ancilla: int              # qubit index within the patch
    corners: tuple[int | None, int | None, int | None, int | None]  # nw, ne, sw, se data indices

    @property
    def data(self) -> tuple[int, ...]:
        return tuple(q for q in self.corners if q is not None)

    @property
    def weight(self) -> int:
        return len(self.data)

    def corner(self, name: str) -> int | None:
        return self.corners[("nw", "ne", "sw", "se").index(name)]

    def schedule(self) -> tuple[int | None, ...]:
        order = X_SCHEDULE if self.kind == "X" else Z_SCHEDULE
        return tuple(self.corner(c) for c in order)


@dataclass(frozen=True)
class PatchLayout:
    d: int
    plaquettes: tuple[Plaquette, ...]
    logical_x_support: tuple[int, ...]
    logical_z_support: tuple[int, ...]

    @property
    def num_data(self) -> int:
        return self.d * self.d

    @property
    def num_qubits(self) -> int:
        return self.num_data + len(self.plaquettes)

    @property
    def x_plaquettes(self) -> tuple[Plaquette, ...]:
        return tuple(p for p in self.plaquettes if p.kind == "X")

    @property
    def z_plaquettes(self) -> tuple[Plaquette, ...]:
        return tuple(p for p in self.plaquettes if p.kind == "Z")


def build_patch(d: int) -> PatchLayout:
    """Construct the rotated layout for odd distance d >= 3."""
    if d < 3 or d % 2 == 0:
        raise ValueError("distance must be an odd integer >= 3")

    def data(i: int, j: int) -> int | None:
        if 0 <= i < d and 0 <= j < d:
            return i * d + j
        return None

    plaquettes: list[Plaquette] = []
    for i in range(-1, d):
        for j in range(-1, d):
            kind = "Z" if (i + j) % 2 == 0 else "X"
            corners = (data(i, j), data(i, j + 1), data(i + 1, j), data(i + 1, j + 1))
            present = [q for q in corners if q is not None]
            if len(present) == 4:
                pass
            elif len(present) == 2:
                # Keep weight-2 cells only on the matching boundary: X along
                # the top/bottom rows, Z along the left/right columns.
                if kind == "X" and i not in (-1, d - 1):
                    continue
                if kind == "Z" and j not in (-1, d - 1):
                    continue
            else:
                continue
            plaquettes.append(Plaquette(kind, d * d + len(plaquettes), corners))

    layout = PatchLayout(
        d=d,
        plaquettes=tuple(plaquettes),
        logical_x_support=tuple(i * d for i in range(d)),
        logical_z_support=tuple(range(d)),
    )
    _validate(layout)
    return layout


def _validate(layout: PatchLayout) -> None:
    d = layout.d
    assert len(layout.plaquettes) == d * d - 1
    assert len(layout.x_plaquettes) == (d * d - 1) // 2
    supports = {"X": [set(p.data) for p in layout.x_plaquettes],
                "Z": [set(p.data) for p in layout.z_plaquettes]}
    for sx in supports["X"]:
        for sz in supports["Z"]:
            assert len(sx & sz) % 2 == 0, "plaquettes must commute"
    lx, lz = set(layout.logical_x_support), set(layout.logical_z_support)
    assert len(lx & lz) % 2 == 1, "logicals must anticommute"
    for sz in supports["Z"]:
        assert len(sz & lx) % 2 == 0
    for sx in supports["X"]:
        assert len(sx & lz) % 2 == 0
