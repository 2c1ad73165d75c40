"""Pass/fail reports for inequality checkers.

A record stores the worst margin of one inequality as a dimensionless
ratio (actual / allowed): <= 1 passes.  Reports serialize to JSON with
floats fixed to 17 significant digits so identical runs are
byte-identical.
"""

from dataclasses import dataclass, field


@dataclass
class CheckerRecord:
    name: str
    margin: float
    witness: list = field(default_factory=list)
    passed: bool = True
    detail: str = ""

    @classmethod
    def from_margin(cls, name, margin, witness=(), detail=""):
        margin = float(margin)
        return cls(name=name, margin=margin, witness=[float(w) for w in witness],
                   passed=bool(margin <= 1.0), detail=detail)

    def to_dict(self):
        d = {"name": self.name, "margin": self.margin,
             "witness": self.witness, "pass": self.passed}
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class CheckerReport:
    records: list
    constants_version: str = "unversioned"
    meta: dict = field(default_factory=dict)

    @property
    def verdict(self):
        return all(r.passed for r in self.records)

    def record(self, name):
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(f"no record named {name!r}")

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "records": [r.to_dict() for r in self.records],
            "constants_version": self.constants_version,
            "meta": self.meta,
        }

    def to_json(self):
        return dumps_deterministic(self.to_dict())

    def summary_lines(self):
        lines = []
        for r in self.records:
            tag = "PASS" if r.passed else "FAIL"
            lines.append(f"  [{tag}] {r.name:<28s} margin={r.margin:.6g}")
        lines.append(f"  verdict: {'PASS' if self.verdict else 'FAIL'}")
        return lines


def _fmt(value, parts, indent, level):
    pad = "  " * level
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        parts.append("{\n")
        items = list(value.items())
        for i, (k, v) in enumerate(items):
            parts.append(f'{pad}  "{k}": ')
            _fmt(v, parts, indent, level + 1)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            parts.append("[]")
            return
        parts.append("[")
        for i, v in enumerate(seq):
            _fmt(v, parts, indent, level + 1)
            if i < len(seq) - 1:
                parts.append(", ")
        parts.append("]")
    elif isinstance(value, bool):
        parts.append("true" if value else "false")
    elif value is None:
        parts.append("null")
    elif isinstance(value, float):
        if value != value:
            parts.append('"nan"')
        elif value in (float("inf"), float("-inf")):
            parts.append(f'"{value}"')
        else:
            parts.append(f"{value:.17g}")
    elif isinstance(value, int):
        parts.append(str(value))
    else:
        escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'"{escaped}"')


def dumps_deterministic(obj):
    """JSON text with floats at 17 significant digits, stable layout."""
    parts = []
    _fmt(obj, parts, 2, 0)
    parts.append("\n")
    return "".join(parts)
