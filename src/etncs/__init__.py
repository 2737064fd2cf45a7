"""Event-triggered networked control: design formulas plus a deterministic
closed-loop simulator with delayed, quantized, lossy links.  The package binds
only ``__version__``; import from its modules (``etncs.sim``, ``etncs.config``, ...)."""

__version__ = "0.1.0"
