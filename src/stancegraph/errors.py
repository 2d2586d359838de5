"""Typed errors shared across the package."""


class StanceGraphError(Exception):
    """Base class for all package errors."""


class ParseError(StanceGraphError):
    """Raised on malformed FOL input.

    Carries the byte offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}" +
                         (f" (expected one of: {', '.join(sorted(expected))})" if expected else ""))
        self.offset = offset
        self.expected = frozenset(expected)


class EmptyGraphError(StanceGraphError):
    pass


class EmptyFieldError(StanceGraphError):
    pass


class CacheMissError(StanceGraphError):
    pass


class CacheFormatError(StanceGraphError):
    """A cache file has a torn or undecodable line."""

    def __init__(self, path, line, reason):
        super().__init__(f"{path}: line {line} is not a cache entry ({reason})")
        self.path = path
        self.line = line


class HttpError(StanceGraphError):
    def __init__(self, message, status=None, retries=0):
        super().__init__(message)
        self.status = status
        self.retries = retries


class TransportTimeoutError(StanceGraphError):
    pass


class ConfigError(StanceGraphError):
    """A run configuration that cannot be used: a config file that is not a
    JSON object, a key that is not a RunConfig field, a value of the wrong
    type, a size that makes no valid model, or an unknown macro-F1 mode."""


class GatewayConfigError(StanceGraphError):
    pass


class ProviderError(StanceGraphError):
    pass


class DimensionMismatchError(StanceGraphError):
    pass


class EmptyCorpusError(StanceGraphError):
    pass


class InvalidKError(StanceGraphError):
    pass


class SingleClusterError(StanceGraphError):
    pass


class UnassignedPredicateError(StanceGraphError):
    pass


class InvalidFilterCountError(StanceGraphError):
    pass


class SchemaFormatError(StanceGraphError):
    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{message} (field: {field})")
        self.field = field


class ShapeMismatchError(StanceGraphError):
    pass


class InvalidGError(StanceGraphError):
    pass


class IndexOutOfRangeError(StanceGraphError):
    pass


class NonFiniteLossError(StanceGraphError):
    def __init__(self, message, batch_index=None):
        super().__init__(message)
        self.batch_index = batch_index


class LengthMismatchError(StanceGraphError):
    pass


class BadLabelError(StanceGraphError):
    def __init__(self, row, value):
        super().__init__(f"bad label {value!r} at row {row}")
        self.row = row
        self.value = value


class BadHeaderError(StanceGraphError):
    pass


class EmptySetError(StanceGraphError):
    pass


class FingerprintMismatchError(StanceGraphError):
    pass
