"""Tools: the interactive namespace shell (:mod:`repro.tools.shell`) and
the export shape checker every validator shares (:mod:`repro.tools.shape`)."""
