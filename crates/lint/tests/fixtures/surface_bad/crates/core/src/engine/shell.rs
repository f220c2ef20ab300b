// Mini-tree fixture: the designated `Effect` consumer with no match at all.
pub fn emit(to: NodeId, msg: Msg, delta: Box<DurableDelta>) -> Vec<Effect> {
    vec![Effect::Send { to, msg }, Effect::Persist(delta)]
}

pub fn release(queue: Vec<Effect>) {
    for _effect in queue {
        log("dropped an effect on the floor");
    }
}
