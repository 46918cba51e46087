"""Exception hierarchy shared by all noisekit modules.

Exit-code mapping used by the CLI: usage errors exit 1, ``DataError``
subclasses exit 2, ``ClientError`` subclasses exit 3.
"""


class NoisekitError(Exception):
    """Base class of this package's errors; prefixes ``path, line N, column M: `` if given."""

    exit_code = 2

    def __init__(self, reason, path=None, line=None, column=None):
        self.reason = reason
        self.path = path
        self.line = line
        self.column = column
        loc = []
        if path is not None:
            loc.append(str(path))
        if line is not None:
            loc.append(f"line {line}")
        if column is not None:
            loc.append(f"column {column}")
        prefix = ", ".join(loc)
        super().__init__(f"{prefix}: {reason}" if prefix else reason)


class DataError(NoisekitError):
    """Invalid input data or arguments."""


class ClientError(NoisekitError):
    """External translator/predictor client failure."""

    exit_code = 3


class Malformed(DataError):
    """A file does not follow its schema."""


class BadEncoding(DataError):
    pass


class IoFailure(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class InvalidProbability(DataError):
    pass


class InvalidCounts(DataError):
    pass


class MalformedMatrix(DataError):
    """A rating matrix breaks a rule; ``item`` is the offending row's index, when one is."""

    item = None


class InsufficientData(DataError):
    pass


class MissingResource(DataError):
    pass


class ClientUnavailable(ClientError):
    pass


class FixtureMiss(ClientError):
    pass


class PredictorFailure(ClientError):
    pass
