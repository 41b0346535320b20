"""Self-stabilizing communication substrate.

* bounded-capacity lossy raw channels (:mod:`~repro.datalink.bounded_link`),
* the footnote-3 alternating-bit stabilizing data link
  (:mod:`~repro.datalink.alternating_bit`),
* the ss-broadcast abstraction with two interchangeable transports
  (:mod:`~repro.datalink.ss_broadcast`).

Packets and acks in transit are non-cancellable scheduler calls.

Names are imported from their modules (a package import loads no
module of it); the flat public surface is :mod:`repro.api`.
"""
