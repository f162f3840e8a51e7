"""Tools: the export shape checker every validator shares
(:mod:`repro.tools.shape`)."""
