"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError (and its
DegenerateInputError subclass) mean the inputs were structurally wrong or
degenerate (exit 1); ParseError means a config or annotation file could not
be read (exit 2, like any other I/O failure). `read_text` reads those files,
so that a byte that is not UTF-8 is a ParseError too. Every reader and line
number follows one line rule: lines end at `\n` only (`\r\n` works because
`\r` is whitespace; a bare `\r` does not end a line), `#` starts a comment,
and whitespace separates fields. `tokenize` splits text by that rule for
the config reader and for the line-by-line pass of the annotation reader;
annotation files go first to numpy's text reader, which splits them alike
and sends what it refuses to that pass.
"""


class ValidationError(ValueError):
    """A shape, range, or consistency precondition was violated."""


class DegenerateInputError(ValidationError):
    """Input is structurally valid but carries no usable information
    (all-zero scale vector, comparison against a zero-cost baseline, ...)."""


class ParseError(ValueError):
    """A text artifact (model config, ground-truth/detection file) is malformed.

    `line` is the 1-based line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TrainingDiverged(RuntimeError):
    """The demo training loop produced a non-finite loss."""


def read_text(path) -> str:
    """The UTF-8 text of a file; an undecodable byte raises ParseError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: byte 0x{data[exc.start]:02x} cannot be decoded", line) from None


def tokenize(text: str):
    """Yield (1-based line number, fields) for each line with fields before `#`."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split("#", 1)[0].split()
        if fields:
            yield lineno, fields
