"""Exception hierarchy shared by all pipeline stages: one class per exit code.

InputFormatError means a file could not be understood (wrong format,
unparsable record), PipelineError means the data was readable but an
operation's domain contract was violated; the CLI maps them to exit
codes 2 and 3. BundleError wraps either with the report stage it
escaped from, and the CLI exits with the code of its cause.
"""


class TextPersonaError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(TextPersonaError):
    """A file or record does not match its declared format."""


class PipelineError(TextPersonaError):
    """A domain or contract violation inside an otherwise valid pipeline."""


class BundleError(PipelineError):
    """A report bundle stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):  # pickle rebuilds an exception from args, which hold only the message
        return type(self), (self.stage, self.cause)
