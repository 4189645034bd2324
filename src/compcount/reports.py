"""Verification report records: per-grid-point value comparisons with
verdicts, serializable as columnar text and as JSON-ready dicts.

A point's verdict is a pure function of its recorded values: ``agree``
exactly when every value present at that point (lhs, rhs, and the oracle
when recorded) is equal.
"""


class GridPoint:
    __slots__ = ("n", "k", "lhs", "rhs", "oracle")

    def __init__(self, n: int, k: int, lhs: int, rhs: int, oracle: int | None = None):
        self.n, self.k, self.lhs, self.rhs, self.oracle = n, k, lhs, rhs, oracle

    @property
    def agree(self) -> bool:
        if self.lhs != self.rhs:
            return False
        return self.oracle is None or self.oracle == self.lhs

    @property
    def verdict(self) -> str:
        return "agree" if self.agree else "disagree"


class VerificationReport:
    __slots__ = ("identity", "points", "lhs_label", "rhs_label", "notes")

    def __init__(self, identity: str, points: tuple[GridPoint, ...], lhs_label: str = "lhs",
                 rhs_label: str = "rhs", notes: tuple[str, ...] = ()):
        self.identity, self.points = identity, points
        self.lhs_label, self.rhs_label, self.notes = lhs_label, rhs_label, notes

    @property
    def agree(self) -> bool:
        return all(point.agree for point in self.points)

    @property
    def internal_agree(self) -> bool:
        """Do the two computed sides match everywhere (oracle ignored)?"""
        return all(point.lhs == point.rhs for point in self.points)

    @property
    def oracle_agree(self) -> bool | None:
        """Do both sides match the oracle wherever one was recorded?
        None when no point carries an oracle value."""
        with_oracle = [p for p in self.points if p.oracle is not None]
        if not with_oracle:
            return None
        return all(p.agree for p in with_oracle)

    def disagreements(self) -> tuple[GridPoint, ...]:
        return tuple(point for point in self.points if not point.agree)

    def to_text(self) -> str:
        """Columnar record set: one `identity n k lhs rhs oracle verdict`
        line per grid point ('-' marks an absent oracle), '#'-prefixed
        header, note, and summary lines."""
        lines = [
            f"# identity={self.identity} lhs={self.lhs_label} rhs={self.rhs_label}"
            f" points={len(self.points)}"
        ]
        for p in self.points:
            oracle = "-" if p.oracle is None else str(p.oracle)
            lines.append(
                f"{self.identity} {p.n} {p.k} {p.lhs} {p.rhs} {oracle} {p.verdict}"
            )
        for note in self.notes:
            lines.append(f"# note: {note}")
        oracle_summary = {True: "agree", False: "disagree", None: "n/a"}[self.oracle_agree]
        internal = "agree" if self.internal_agree else "disagree"
        overall = "agree" if self.agree else "disagree"
        lines.append(
            f"# summary identity={self.identity} lhs_vs_rhs={internal}"
            f" oracle={oracle_summary} overall={overall}"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "lhs_label": self.lhs_label,
            "rhs_label": self.rhs_label,
            "notes": list(self.notes),
            "summary": {
                "lhs_vs_rhs": self.internal_agree,
                "oracle": self.oracle_agree,
                "agree": self.agree,
            },
            "points": [
                {
                    "identity": self.identity,
                    "n": p.n,
                    "k": p.k,
                    "lhs": p.lhs,
                    "rhs": p.rhs,
                    "oracle": p.oracle,
                    "verdict": p.verdict,
                }
                for p in self.points
            ],
        }
