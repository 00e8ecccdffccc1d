"""Exception taxonomy for the toolkit.

Every domain error derives from :class:`UlsforgeError` so callers can
catch toolkit failures with a single except clause. File-system level
problems (missing files, unwritable paths) use the builtin OSError
family where Python convention expects it.
"""

from __future__ import annotations


class UlsforgeError(Exception):
    """Base class for all toolkit errors."""


# volume I/O -----------------------------------------------------------------

class BadMagicError(UlsforgeError):
    """File is not a NIfTI-1 file (magic bytes absent or corrupted)."""


class BadHeaderError(UlsforgeError):
    """Header parsed but is structurally unusable (non-3D, bad dims)."""


class UnsupportedDatatypeError(UlsforgeError):
    """NIfTI datatype code outside the supported set."""


class TruncatedDataError(UlsforgeError):
    """Voxel payload shorter than the header promises."""


class UnsupportedScalingError(UlsforgeError):
    """Header asks for intensity rescaling (scl_slope/scl_inter), which is not applied."""


# volume semantics -----------------------------------------------------------

class WrongKindError(UlsforgeError):
    """Operation received a volume of the wrong kind."""


class DimsMismatchError(UlsforgeError):
    """Two volumes that must share dims do not."""


class PadValueError(UlsforgeError):
    """A pad value that the dtype of the volume it pads cannot hold."""


# lesions / clicks -----------------------------------------------------------

class EmptyInstanceError(UlsforgeError):
    """Lesion instance has no voxels."""


class ClickOutOfVolumeError(UlsforgeError):
    """Click point lies outside the volume."""


class ClickNotOnMaskError(UlsforgeError):
    """Click point is a background voxel."""


class AmbiguousLesionError(UlsforgeError):
    """Mask holds several lesions and nothing says which one is meant."""


# segmenters -----------------------------------------------------------------

class ProcessFailedError(UlsforgeError):
    """External segmenter exited nonzero; message carries diagnostics."""


class SegmenterTimeoutError(UlsforgeError):
    """External segmenter exceeded its time budget."""


class BadMaskDimsError(UlsforgeError):
    """External segmenter produced a mask with wrong dimensions."""


class BadMaskValuesError(UlsforgeError):
    """A mask holds values it may not: an external segmenter's outside {0, 1},
    or a ground-truth mask's NaN or infinite voxels."""


# statistics -----------------------------------------------------------------

class LengthMismatchError(UlsforgeError):
    """Paired samples of different length."""


class TooFewPairsError(UlsforgeError):
    """Fewer than two pairs; t statistic undefined."""


class ZeroVarianceError(UlsforgeError):
    """All paired differences equal; p value undefined, reported degenerate."""


# pipeline -------------------------------------------------------------------

class ManifestParseError(UlsforgeError):
    """Manifest file could not be parsed."""


class DuplicateLesionIdError(UlsforgeError):
    """Two manifest entries share a lesion id."""


class MissingFileError(UlsforgeError):
    """Referenced volume files absent; message lists all of them."""

    def __init__(self, missing: list[str]):
        self.missing = list(missing)
        super().__init__(
            "manifest references %d missing file(s): %s"
            % (len(self.missing), ", ".join(self.missing))
        )


class NoPatientsError(UlsforgeError):
    """Manifest has no patients to split."""


class PairingMismatchError(UlsforgeError):
    """Two runs cover different lesion id sets, or put a lesion in different datasets."""

    def __init__(self, only_a: set[str], only_b: set[str],
                 moved: dict[str, tuple[str, str]] | None = None):
        self.only_a = sorted(only_a)
        self.only_b = sorted(only_b)
        self.moved = dict(sorted((moved or {}).items()))  # lesion id -> (dataset in a, in b)
        if self.moved:
            message = "lesion datasets differ for %d lesion(s): %s" % (len(self.moved), ", ".join(
                "%s is in %r in a, %r in b" % (lid, in_a, in_b)
                for lid, (in_a, in_b) in list(self.moved.items())[:5]))
        else:
            message = "lesion sets differ: %d only in a (%s), %d only in b (%s)" % (
                len(self.only_a), ", ".join(self.only_a[:5]),
                len(self.only_b), ", ".join(self.only_b[:5]))
        super().__init__(message)


class EmptyRecordsError(UlsforgeError):
    """Aggregation requires at least one record."""
