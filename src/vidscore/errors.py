"""Exception hierarchy and the CLI exit codes attached to each failure class."""


class VidscoreError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


# -- frame sources / video analysis (exit 2) ---------------------------------

class SourceError(VidscoreError):
    exit_code = 2


class SourceNotFoundError(SourceError):
    pass


class MalformedSourceError(SourceError):
    pass


class EmptyVideoError(SourceError):
    pass


# -- planning (exit 3) --------------------------------------------------------

class PlanningError(VidscoreError):
    exit_code = 3


class EmptyInputError(PlanningError):
    pass


class IncompleteDetectionsError(PlanningError):
    pass


class MalformedDetectionsError(PlanningError):
    pass


class NoConsistentTempoError(PlanningError):
    pass


class UnplannableSectionError(PlanningError):
    def __init__(self, section_id, duration_s):
        self.section_id = section_id
        self.duration_s = duration_s
        super().__init__(
            f"no tempo/time-signature/phrase combination fits section "
            f"{section_id} (duration {duration_s:.3f} s)"
        )


class PlanParseError(PlanningError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# -- composition / MIDI (exit 4) ----------------------------------------------

class ComposeError(VidscoreError):
    exit_code = 4


class EmptyMelodyError(ComposeError):
    pass


class InconsistentPlanError(ComposeError):
    pass


class MissingInstrumentError(ComposeError):
    pass


class InvalidEventError(ComposeError):
    pass


class MalformedMidiError(ComposeError):
    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class UnsupportedFormatError(ComposeError):
    pass


# -- loop mixing (exit 4, same stage slot as compose) --------------------------

class StemMismatchError(ComposeError):
    pass


# -- external tools (exit 5) and configuration (exit 6) ------------------------

class ExternalToolError(VidscoreError):
    exit_code = 5


class ConfigError(VidscoreError):
    exit_code = 6
