"""Exception hierarchy shared across the toolkit."""


class StarMinerError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(StarMinerError):
    """A declaration is malformed: table schema, join, policy, config."""


class DataError(StarMinerError):
    """Input data violates a declared contract: bad cell, orphan key,
    value outside every bin, unknown mapping code."""


class AgreementError(StarMinerError):
    """Two mining engines disagreed on output that must be identical."""


class UsageError(StarMinerError, ValueError):
    """The run was asked for wrongly: a bad flag, config field or threshold,
    or a path that cannot be read or written. A ``ValueError`` too, so
    callers that caught one before still do."""
