"""The identity corpus's statements, split into fields by the standard library.

``data/identities.txt`` states every identity the lab checks, one statement
a line (its header gives the forms).  The check registry (``cli.SUITES``)
reads its report ids and texts from :func:`statements` without loading
numpy; :mod:`expr` parses and compiles the same statements, and every row's
reference text is a statement's :attr:`Statement.reference`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache


class Statement(namedtuple("Statement", "kind family ident texts degree scale target",
                           defaults=(0, "1", ""))):
    """One corpus line: a "relation" (``ident`` has no dot), a report "row"
    (``ident`` is its id), a "definition" or a "map".  ``family`` is a map's
    source, else the line's family or target algebra; ``texts`` holds the
    residuals, a definition's expression or a map's (name, image) pairs.
    (A named tuple: a dataclass costs a millisecond to define.)"""

    __slots__ = ()

    @property
    def reference(self) -> str:
        """What a relation or row states, its residuals set to zero, or a map with its images."""
        if self.kind == "map":
            images = ", ".join(f"{name} = {text}" for name, text in self.texts)
            return f"{self.target} <- {self.family} : {images}"
        return ", ".join(f"{text} = 0" for text in self.texts)

    def reference_on(self, image_map: "Statement") -> str:
        """The reference of this relation evaluated on a map's images."""
        return f"{self.reference} on {image_map.target} <- {image_map.family}"


def split_top(text: str, sep: str = ",") -> list:
    """``text`` cut at each ``sep`` outside parentheses, each piece stripped."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    return parts + [text[start:].strip()]


def statement(line: str) -> Statement:
    """The statement of one corpus line."""
    fields = [f.strip() for f in line.split(";")]
    if len(fields) == 5:
        family, ident, degree, residuals, scale = fields
        return Statement("row" if "." in ident else "relation", family, ident,
                         tuple(split_top(residuals)), int(degree), scale)
    if len(fields) == 2 and "<-" in fields[1]:
        head, _, body = fields[1].partition(":")
        target, _, source = (s.strip() for s in head.partition("<-"))
        images = tuple(tuple(s.strip() for s in image.partition("=")[::2])
                       for image in split_top(body))
        return Statement("map", source, fields[0], images, target=target)
    if len(fields) == 2 and "=" in fields[1]:
        name, _, text = fields[1].partition("=")
        return Statement("definition", fields[0], name.strip(), (text.strip(),))
    raise ValueError(f"not a corpus statement: {line!r}")


@lru_cache(maxsize=None)
def statements() -> tuple:
    """Every statement of the checked-in corpus, in order."""
    from importlib import resources
    text = (resources.files("bosonhopf") / "data" / "identities.txt").read_text()
    lines = (line.strip() for line in text.splitlines())
    return tuple(statement(line) for line in lines if line and not line.startswith("#"))
