"""Exception hierarchy for the ContainerLeaks reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """A simulation invariant was violated (e.g. time moved backwards)."""


class KernelError(ReproError):
    """A simulated-kernel operation failed (bad pid, missing subsystem...)."""


class PseudoFileError(KernelError):
    """A pseudo-filesystem operation failed."""


class _PathError(PseudoFileError):
    """A pseudo-file error about one path, formatted as ``prefix: path``.

    It pickles as its path alone, so an error raised inside a shard
    worker crosses the pipe unchanged (the default exception pickling
    would pass the formatted message back in and double the prefix).
    """

    prefix = ""

    def __init__(self, path: str):
        super().__init__(f"{self.prefix}: {path}")
        self.path = path

    def __reduce__(self):
        return (type(self), (self.path,))


class PermissionDeniedError(_PathError):
    """Read access to a pseudo file was denied by a masking policy.

    This mirrors the ``EACCES`` a real container sees when AppArmor or a
    read-only/unreadable mount masks a ``/proc`` or ``/sys`` entry.
    """

    prefix = "permission denied"


class FileNotFoundPseudoError(_PathError):
    """The pseudo path does not exist in the mounted view (``ENOENT``)."""

    prefix = "no such file or directory"


class TransientReadError(_PathError):
    """A pseudo-file read failed transiently (``EIO``).

    Real ``/proc``/``/sys`` reads occasionally fail on live hosts — a
    sensor glitches, a device resets, a race in the kernel returns -EIO.
    The fault-injection subsystem (:mod:`repro.sim.faults`) raises this
    for scheduled sensor/read faults; consumers are expected to retry or
    degrade rather than abort (see ``docs/faults.md``).
    """

    prefix = "transient read failure (EIO)"


class ContainerError(ReproError):
    """A container-runtime operation failed."""


class CloudError(ReproError):
    """A cloud-level operation (placement, tenancy, billing) failed."""


class CapacityError(CloudError):
    """The cloud has no server with room for the requested instance."""


class DefenseError(ReproError):
    """A defense-subsystem operation failed (modelling, calibration...)."""


class AttackError(ReproError):
    """An attack-toolkit operation failed (no channel, no co-residence...)."""
