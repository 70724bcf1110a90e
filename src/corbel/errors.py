"""Exception types shared across the package."""


class InputError(ValueError):
    """A precondition on caller-supplied data was violated."""


class ParseError(ValueError):
    """Malformed external input; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)
        self.offset = offset


class CapError(RuntimeError):
    """A computation exceeded one of its hard size caps; the message names both when given."""

    def __init__(self, message: str, size: int | None = None, cap: int | None = None):
        if size is not None and cap is not None:
            message = f"{message} (size {size} > cap {cap})"
        super().__init__(message)
        self.size = size
        self.cap = cap


class UsageError(ValueError):
    """Command line misuse: unknown subcommand or tag, bad flag combination."""
