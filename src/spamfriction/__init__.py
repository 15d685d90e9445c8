"""Targeted-cost proof-of-work for SMTP, plus a sender-economics simulator.

The package gates mail acceptance on a hashcash-style partial-preimage
puzzle whose difficulty is set by how spammy the message looks: suspect
mail must burn CPU time to be accepted, ordinary mail passes almost free.
"""

__version__ = "0.1.0"
