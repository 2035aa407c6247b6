"""Exception hierarchy shared across the package."""


class RefScanError(Exception):
    """Base class for all package errors."""


class DimensionError(RefScanError):
    """Operand shapes do not conform."""


class InputError(RefScanError):
    """Caller supplied unusable input data."""


class ConfigError(RefScanError):
    """Configuration value out of range or inconsistent."""


class AdapterError(RefScanError):
    """A pluggable encoder/detector adapter failed."""


class ParseError(RefScanError):
    """A data file failed schema validation.

    Carries the offending line number and field name when known.
    """

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        parts = [message]
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field {field!r}")
        super().__init__(": ".join(parts))


class MetricError(RefScanError):
    """A metric is undefined on the given evaluation records."""


class PipelineError(RefScanError):
    """Forward-pass failure, tagged with the stage of the unit that raised
    it: semantics, retrieval, ssm, fusion, heads or loss."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r}: {cause}")
