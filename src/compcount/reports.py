"""Verification reports as data: a report and its grid points are
namedtuples, and one summary of the points feeds both the columnar text
and the JSON document.

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


def _quote(text: str) -> str:
    """``text`` as json.dumps writes it: plain printable ASCII with no quote
    or backslash (every string verify passes) is only quoted, so a report
    loads no json module; any other string goes to json.dumps."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


def to_json(reports) -> str:
    """The records and summaries as the bytes json.dumps({"reports": [...]},
    indent=2) prints, each point from one template; strings go through
    _quote."""
    def array(items, pad):  # json's layout of a list at this indent
        return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[2:]}]" if items else "[]"

    words = {True: "true", False: "false", None: "null"}
    blocks = []
    for report in reports:
        internal, oracle, agree = summary(report)
        identity = _quote(report.identity)
        points = [f"""{{
          "identity": {identity},
          "n": {p.n},
          "k": {p.k},
          "lhs": {p.lhs},
          "rhs": {p.rhs},
          "oracle": {"null" if p.oracle is None else p.oracle},
          "verdict": "{_verdict(p.agree)}"
        }}""" for p in report.points]
        blocks.append(f"""{{
      "identity": {identity},
      "lhs_label": {_quote(report.lhs_label)},
      "rhs_label": {_quote(report.rhs_label)},
      "notes": {array([_quote(note) for note in report.notes], " " * 8)},
      "summary": {{
        "lhs_vs_rhs": {words[internal]},
        "oracle": {words[oracle]},
        "agree": {words[agree]}
      }},
      "points": {array(points, " " * 8)}
    }}""")
    return f'{{\n  "reports": {array(blocks, " " * 4)}\n}}'
