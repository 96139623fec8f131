"""vogrid: a desk-scale virtual-organization grid.

Classad matchmaking with match-time station queries, schema-driven site
configuration, config-derived resource advertisement and monitoring, a
journaled job queue, and a deterministic scenario simulator.
"""

__version__ = "0.1.0"

# Submodules load on first import (`from vogrid import sim`), not here, so
# that a server process loads only the modules its command uses.
