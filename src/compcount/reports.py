"""Verification reports as data: a report and its grid points are
namedtuples, and one summary of the points feeds both the columnar text
and the JSON-ready dict.

A GridPoint's ``agree`` is set once, when verify builds the point: true
exactly when every value recorded there (lhs, rhs, and the oracle when
recorded) is equal.
"""

from collections import namedtuple

GridPoint = namedtuple("GridPoint", "n k lhs rhs oracle agree")
Report = namedtuple("Report", "identity points lhs_label rhs_label notes", defaults=((),))


def _verdict(agree: bool) -> str:
    return "agree" if agree else "disagree"


def summary(report: Report) -> tuple[bool, bool | None, bool]:
    """(lhs_vs_rhs, oracle, agree): do the two computed sides match
    everywhere, does every point with an oracle agree (None when no point
    records one), and does every point agree."""
    with_oracle = [p.agree for p in report.points if p.oracle is not None]
    return (
        all(p.lhs == p.rhs for p in report.points),
        all(with_oracle) if with_oracle else None,
        all(p.agree for p in report.points),
    )


def to_text(report: Report) -> str:
    """Columnar record set: one `identity n k lhs rhs oracle verdict`
    line per grid point ('-' marks an absent oracle), '#'-prefixed
    header, note, and summary lines."""
    internal, oracle, agree = summary(report)
    lines = [
        f"# identity={report.identity} lhs={report.lhs_label} rhs={report.rhs_label}"
        f" points={len(report.points)}"
    ]
    for p in report.points:
        recorded = "-" if p.oracle is None else str(p.oracle)
        lines.append(
            f"{report.identity} {p.n} {p.k} {p.lhs} {p.rhs} {recorded} {_verdict(p.agree)}"
        )
    for note in report.notes:
        lines.append(f"# note: {note}")
    oracle_summary = "n/a" if oracle is None else _verdict(oracle)
    lines.append(
        f"# summary identity={report.identity} lhs_vs_rhs={_verdict(internal)}"
        f" oracle={oracle_summary} overall={_verdict(agree)}"
    )
    return "\n".join(lines)


def to_json_dict(report: Report) -> dict:
    """The same records and summary as a dict ready for ``json.dumps``."""
    internal, oracle, agree = summary(report)
    return {
        "identity": report.identity,
        "lhs_label": report.lhs_label,
        "rhs_label": report.rhs_label,
        "notes": list(report.notes),
        "summary": {
            "lhs_vs_rhs": internal,
            "oracle": oracle,
            "agree": agree,
        },
        "points": [
            {
                "identity": report.identity,
                "n": p.n,
                "k": p.k,
                "lhs": p.lhs,
                "rhs": p.rhs,
                "oracle": p.oracle,
                "verdict": _verdict(p.agree),
            }
            for p in report.points
        ],
    }
