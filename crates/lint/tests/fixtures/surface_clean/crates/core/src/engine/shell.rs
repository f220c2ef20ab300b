// Mini-tree fixture: the exhaustive `Effect` consumer (the node shell).
pub fn emit(to: NodeId, msg: Msg, delta: Box<DurableDelta>) -> Vec<Effect> {
    vec![Effect::Send { to, msg }, Effect::Persist(delta)]
}

pub fn consume(effect: Effect) {
    match effect {
        Effect::Send { to, msg } => deliver(to, msg),
        Effect::Persist(delta) => journal(delta),
    }
}
