"""avq360: audio-visual quality assessment for 360-degree UGC video.

Subpackages cover media ingestion (manifest), subjective-score
processing (subjective), SI/TI content statistics (siti), ERP latitude
geometry (erp), the audio DSP front-end (audiofe), a minimal neural core
with analytic gradients (nn), the quality model and training loop
(model), the evaluation metric suite (metrics), head-movement analysis
(hm), and synthetic fixtures (synthetic).
"""
