from .cm2 import CM2Model, ModelConfig, apply_map_encoder, init_map_encoder
from .attention import (apply_self_attention, cross_modal_attend, init_cross_modal,
                        init_self_attention, text_keys_values)
from .unet import UNetSpec, init_unet, apply_unet
from .supervision import (
    sample_waypoints, make_gt_heatmaps,
    ego_to_heatmap_cell, heatmap_cell_to_ego, HEATMAP_CELL,
)
from .losses import loss_waypoint, loss_map, loss_total
