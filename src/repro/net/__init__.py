"""The simulated internetwork: topology, transport, marshal, sites, RMI."""

from .gateway import TcpGateway, TcpGatewayClient
from .marshal import (
    MAGIC,
    Reference,
    marshal,
    marshal_frame,
    marshalled_size,
    materialize_deep,
    unmarshal,
)
from .rmi import (
    AsyncCall,
    BatchFuture,
    RemoteRef,
    RequestBatch,
    RetryPolicy,
)
from .site import Site
from .topology import LAN, Link, MODEM, Topology, WAN
from .transport import Message, Network

__all__ = [
    "marshal",
    "marshal_frame",
    "unmarshal",
    "materialize_deep",
    "marshalled_size",
    "Reference",
    "MAGIC",
    "Topology",
    "Link",
    "LAN",
    "WAN",
    "MODEM",
    "Network",
    "Message",
    "Site",
    "RemoteRef",
    "RetryPolicy",
    "AsyncCall",
    "BatchFuture",
    "RequestBatch",
    "TcpGateway",
    "TcpGatewayClient",
]
