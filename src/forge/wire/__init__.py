from forge.wire.client import ForgeClient, default_address
from forge.wire.protocol import DEFAULT_PORT
from forge.wire.server import ForgeServer

__all__ = ["DEFAULT_PORT", "ForgeClient", "ForgeServer", "default_address"]
