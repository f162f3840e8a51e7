"""From-scratch discrete-event simulation (DES) substrate.

The paper evaluates Mantle on a 53-server cluster; this package is the
laptop-scale substitute.  It provides a generator-coroutine event loop
(:mod:`repro.sim.core`), capacity resources and mailboxes
(:mod:`repro.sim.resources`), an RTT-charged network and CPU/disk host model
(:mod:`repro.sim.network`, :mod:`repro.sim.host`) and measurement helpers
(:mod:`repro.sim.stats`).  All simulated time is in microseconds.
"""
