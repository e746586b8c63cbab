"""The benchmark's workloads, by name."""

from .campaign import CampaignWorkload
from .compile import CompileWorkload
from .session import SessionWorkload

WORKLOADS = {
    "session": SessionWorkload,
    "campaign": CampaignWorkload,
    "compile": CompileWorkload,
}
