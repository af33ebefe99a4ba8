"""Disk drive substrate: datasheet specs, power states, service times and the
simulated drive process.

The power/timing figures come from the paper's Table 2 / Figure 1 (Seagate
ST3500630AS, 7200 rpm SATA): active 13 W, seek 12.6 W, idle 9.3 W, standby
0.8 W, spin-up 24 W for 15 s, spin-down 9.3 W for 10 s, 72 MB/s transfer.
A drive that stays idle for the *idleness threshold* spins down to standby;
the first request afterwards pays the spin-up latency.  The default threshold
is the break-even time (Table 2's 53.3 s).
"""

from repro.disk.array import DiskArray
from repro.disk.dpm import (
    DPM_LADDERS,
    DpmLadder,
    DpmState,
    LadderRung,
    MultiStateDpmPolicy,
    dpm_ladder_names,
    make_dpm_ladder,
)
from repro.disk.drive import DiskDrive, DiskRequest, DriveStats
from repro.disk.power import DiskState, PowerModel
from repro.disk.service import ServiceModel
from repro.disk.specs import DiskSpec, ST3500630AS

__all__ = [
    "DPM_LADDERS",
    "DiskArray",
    "DiskDrive",
    "DiskRequest",
    "DiskSpec",
    "DpmLadder",
    "DpmState",
    "DiskState",
    "DriveStats",
    "LadderRung",
    "MultiStateDpmPolicy",
    "PowerModel",
    "ST3500630AS",
    "ServiceModel",
    "dpm_ladder_names",
    "make_dpm_ladder",
]
