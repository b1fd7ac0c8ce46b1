"""A small reader for the CPLEX LP subset that `relpack.milp.export_lp` writes.

It is written from the LP grammar (sections, labelled rows, signed terms), not
from the exporter, so reading an exported file back is a real round trip.
Pure Python: the process that runs the timed operations uses it to check the
exported model, and that process must never load scipy.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

_TOKEN = re.compile(
    r"<=|>=|=|[+-]"
    r"|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
    r"|[A-Za-z_][\w.\[\]]*"
)
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")
_LABEL = re.compile(r"^\s*([A-Za-z_][\w.\[\]]*)\s*:(.*)$")
_HEADERS = {
    "minimize": "objective",
    "subject to": "constraints",
    "bounds": "bounds",
    "binary": "binary",
    "end": "end",
}
_SENSES = ("<=", ">=", "=")


class LpFormatError(ValueError):
    pass


@dataclass
class LpFile:
    objective: dict[str, float] = field(default_factory=dict)
    # (name, coefficients, sense, rhs), in file order
    constraints: list[tuple[str, dict[str, float], str, float]] = field(default_factory=list)
    lower: dict[str, float] = field(default_factory=dict)
    binary: list[str] = field(default_factory=list)

    def variables(self) -> list[str]:
        """Every variable name, in order of first appearance."""
        seen: dict[str, None] = dict.fromkeys(self.objective)
        for _, coeffs, _, _ in self.constraints:
            seen.update(dict.fromkeys(coeffs))
        seen.update(dict.fromkeys(self.lower))
        seen.update(dict.fromkeys(self.binary))
        return list(seen)


def _linear(tokens: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    sign, coef = 1.0, None
    for tok in tokens:
        if tok == "+":
            continue
        if tok == "-":
            sign = -sign
        elif _NUMBER.match(tok):
            coef = float(tok) if coef is None else coef * float(tok)
        else:
            out[tok] = out.get(tok, 0.0) + sign * (1.0 if coef is None else coef)
            sign, coef = 1.0, None
    if coef is not None:
        raise LpFormatError("constant term in a linear expression")
    return out


def _header(line: str) -> tuple[str | None, str]:
    low = line.lower()
    for word, section in _HEADERS.items():
        if low == word or low.startswith(word + " "):
            return section, line[len(word):].strip()
    return None, line


def _rows(lines: list[str]) -> list[tuple[str, str]]:
    """Split a section into (label, body) rows; a row may span lines."""
    rows: list[tuple[str, str]] = []
    for line in lines:
        m = _LABEL.match(line)
        if m:
            rows.append((m.group(1), m.group(2)))
        elif rows:
            rows[-1] = (rows[-1][0], rows[-1][1] + " " + line)
        else:
            rows.append(("", line))
    return rows


def parse(text: str) -> LpFile:
    sections: dict[str, list[str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if not line:
            continue
        section, rest = _header(line)
        if section is not None:
            current = section
            sections.setdefault(current, [])
            line = rest
            if not line:
                continue
        if current is None:
            raise LpFormatError(f"text before the first section: {line!r}")
        sections[current].append(line)
    if "objective" not in sections or "constraints" not in sections:
        raise LpFormatError("missing objective or constraints section")

    lp = LpFile()
    obj_rows = _rows(sections["objective"])
    lp.objective = _linear(_TOKEN.findall(" ".join(body for _, body in obj_rows)))
    for name, body in _rows(sections["constraints"]):
        tokens = _TOKEN.findall(body)
        ops = [i for i, t in enumerate(tokens) if t in _SENSES]
        if len(ops) != 1:
            raise LpFormatError(f"row {name!r} needs exactly one relation")
        i = ops[0]
        # read the constant as the coefficient of a placeholder name
        rhs = _linear(tokens[i + 1:] + ["<rhs>"])
        if list(rhs) != ["<rhs>"]:
            raise LpFormatError(f"row {name!r}: right-hand side must be a constant")
        lp.constraints.append((name, _linear(tokens[:i]), tokens[i], rhs["<rhs>"]))
    for line in sections.get("bounds", []):
        tokens = _TOKEN.findall(line)
        if len(tokens) == 3 and tokens[1] == "<=" and _NUMBER.match(tokens[0]):
            lp.lower[tokens[2]] = float(tokens[0])
        elif len(tokens) == 3 and tokens[1] == ">=" and _NUMBER.match(tokens[2]):
            lp.lower[tokens[0]] = float(tokens[2])
        else:
            raise LpFormatError(f"unsupported bound: {line!r}")
    for line in sections.get("binary", []):
        lp.binary.extend(line.split())
    return lp


def model_mismatches(lp: LpFile, model) -> list[str]:
    """How the parsed file differs from a `relpack.milp.MilpModel`; empty if equal.

    Zero coefficients are not written to the file, so they are ignored here.
    """
    def nonzero(d):
        return {k: v for k, v in d.items() if v != 0}

    out = []
    if nonzero(lp.objective) != nonzero(model.objective):
        out.append("objective")
    if len(lp.constraints) != len(model.constraints):
        out.append(f"{len(lp.constraints)} rows, model has {len(model.constraints)}")
    for (name, coeffs, sense, rhs), con in zip(lp.constraints, model.constraints):
        if (name, sense, rhs) != (con.name, con.sense, con.rhs) or coeffs != nonzero(con.coeffs):
            out.append(f"row {name}")
            break
    if lp.binary != list(model.binary_names):
        out.append("binary section")
    if lp.lower != {n: 0.0 for n in model.continuous_names}:
        out.append("bounds section")
    return out
