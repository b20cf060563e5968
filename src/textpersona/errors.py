"""Exception hierarchy shared by all pipeline stages.

Two branches matter to callers: InputFormatError means a file could not
be understood (wrong format, unparsable record), PipelineError means the
data was readable but an operation's domain contract was violated. The
CLI maps them to exit codes 2 and 3 respectively.
"""


class TextPersonaError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(TextPersonaError):
    """A file or record does not match its declared format."""


class PipelineError(TextPersonaError):
    """A domain or contract violation inside an otherwise valid pipeline."""


class CorpusFormatError(InputFormatError):
    """Profile/post files are unreadable as line-delimited JSON records."""


class LexiconParseError(InputFormatError):
    """Dictionary file violates the category/entry format."""

    def __init__(self, message: str, line_no: int | None = None, path=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ModelError(PipelineError):
    """Fitting or prediction preconditions not met."""


class StatsError(PipelineError):
    """Statistical operation called outside its domain."""


class BundleError(PipelineError):
    """A report bundle stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
