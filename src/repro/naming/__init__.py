"""Decentralized identity and naming (requirement 6 of the paper)."""

from .guid import Guid, GuidFactory, is_guid_text, parse_guid
from .namespace import NameService, join_path, split_path
from .ring import HashRing

# last: the directory imports ``net``, whose site imports the two above
from .directory import ClusterManager, DirectoryClient, DirectoryShard, Lease

__all__ = [
    "Guid",
    "GuidFactory",
    "parse_guid",
    "is_guid_text",
    "NameService",
    "split_path",
    "join_path",
    "HashRing",
    "Lease",
    "DirectoryShard",
    "DirectoryClient",
    "ClusterManager",
]
