"""Line-oriented system description files.

One map per line::

    map tau=<float> slopes=<f_1,...,f_{l+1}> [breaks=<b_1,...,b_l>]

Lines starting with '#' are comments; breaks may be omitted for affine
maps.  Violations of the map invariants are reported with line numbers.
"""

from __future__ import annotations

from .core import Cplifs, PLMap
from .errors import ParseError


def fmt(x: float) -> str:
    """17 significant digits, which parse back to the same float."""
    return f"{x:.17g}"


def _parse_floats(text: str, line_no: int, what: str) -> tuple[float, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ParseError(line_no, f"empty value in {what} list")
        try:
            out.append(float(part))
        except ValueError:
            raise ParseError(line_no, f"bad float {part!r} in {what}") from None
    return tuple(out)


def parse_spec(text: str) -> Cplifs:
    """Parse a system description; raises ParseError with a line number."""
    maps = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] != "map":
            raise ParseError(line_no, f"expected 'map ...', got {fields[0]!r}")
        kv = {}
        for tok in fields[1:]:
            if "=" not in tok:
                raise ParseError(line_no, f"expected key=value, got {tok!r}")
            key, val = tok.split("=", 1)
            if key not in ("tau", "slopes", "breaks"):
                raise ParseError(line_no, f"unknown key {key!r}")
            if key in kv:
                raise ParseError(line_no, f"duplicate key {key!r}")
            kv[key] = val
        if "tau" not in kv or "slopes" not in kv:
            raise ParseError(line_no, "map line needs tau= and slopes=")
        try:
            tau = float(kv["tau"])
        except ValueError:
            raise ParseError(line_no, f"bad float {kv['tau']!r} in tau") from None
        slopes = _parse_floats(kv["slopes"], line_no, "slopes")
        breaks = _parse_floats(kv["breaks"], line_no, "breaks") if "breaks" in kv else ()
        try:
            maps.append(PLMap(breaks=breaks, slopes=slopes, tau=tau))
        except Exception as exc:
            raise ParseError(line_no, str(exc)) from None
    if not maps:
        raise ParseError(0, "no map lines found")
    return Cplifs(maps=tuple(maps))


def parse_spec_file(path: str) -> Cplifs:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def format_spec(F: Cplifs) -> str:
    """Emit a description that parses back to an identical system."""
    lines = []
    for f in F.maps:
        parts = [f"map tau={fmt(f.tau)}", "slopes=" + ",".join(fmt(s) for s in f.slopes)]
        if f.breaks:
            parts.append("breaks=" + ",".join(fmt(b) for b in f.breaks))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
