"""The ``key=value`` sections of the CLI mini-languages.

``--arrivals``, ``--carbon``, ``--deferrable`` and ``--faults random:``
all write a section as ``shape:key=value,...``.
"""

from __future__ import annotations

__all__ = ["floats", "parse_kv"]


def parse_kv(flag: str, section: str, body: str, allowed) -> dict[str, str]:
    """The text values of ``body``'s ``key=value,...`` pairs; an unknown,
    ``=``-less or repeated key raises naming ``flag`` and ``section``."""
    out: dict[str, str] = {}
    if not body:
        return out
    for pair in body.split(","):
        key, sep, value = pair.strip().partition("=")
        if not sep or key not in allowed:
            raise ValueError(
                f"bad {flag} parameter {pair!r} in section {section!r}; "
                f"known keys: {', '.join(sorted(allowed))}"
            )
        if key in out:
            raise ValueError(
                f"duplicate {flag} parameter {key!r} in section "
                f"{section!r}; each key may appear once"
            )
        out[key] = value
    return out


def floats(text: str, what: str) -> tuple[float, ...]:
    """A slash-separated number list such as ``0.2/1.5``."""
    try:
        return tuple(float(v) for v in text.split("/"))
    except ValueError:
        raise ValueError(f"bad {what} list {text!r}; use slash-separated numbers")
